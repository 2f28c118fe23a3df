"""Families of partitions indexed by the partitions of k.

A family assigns one partition to every partition of k; families with
total size n label the conjugacy classes of the group of k-block
permutations of [kn].  Components default to the empty partition.

Every label is one shared object: the constructor validates and
normalizes its input and returns the label `PartitionFamily._of` holds
for those components, which type extraction, `pad_family`,
`families_with_size`, copying and unpickling also return.  Two equal
families are therefore the same object, so `==` and `hash` are identity.
A family carries its total size and the number `m1` of 1-parts in its
all-ones component, both computed once when the label is first built.

Every value type derives from `Immutable`, which refuses writes and `del`.  It also
gives them the one unchecked constructor `_of`, which each validating constructor
returns, and equality, hashing and pickling by slots; each subclass binds its slot
setters once, when it is defined.  `PartitionFamily` keeps its own interning `_of`,
its pickling and identity equality.  `ClassSumVector` sets its slots with those
setters in its validating `__init__` and in `answers._checked_vector`, which wraps
terms a route has checked, and compares its terms in any order.
`check_group` refuses an impossible (k, n) for every caller.

Per label this module keeps the label itself (`_LABELS`), `big_z`, the orbit
size |C_fam| at stage |fam| (`_orbit_size`, an exact quotient checked when
first computed, which takes no factorial of |fam|), the proper part
(`_proper_family`) and the text form (`format_family`), each for the life
of the process; README "What a process keeps" lists every memo of the
package, its key, what bounds it and the caller that reads a key twice.
`class_size` and `partial_class_size` read the orbit size and still check
the size on every call.
"""

from functools import cache
from math import comb, factorial, perm

from . import partitions as pt
from .errors import SizeMismatch, TooSmall, exact_quotient
from .partitions import Partition

__all__ = [
    "PartitionFamily",
    "index_partitions",
    "pad_family",
    "big_z",
    "group_order",
    "class_size",
    "partial_class_size",
    "families_with_size",
    "format_family",
    "parse_family",
]


@cache
def index_partitions(k: int) -> tuple[Partition, ...]:
    """The partitions of k in component order: (1^k) first, (k) last.

    This is the order used for storing and printing family components; it
    matches the usual bipartition/triplet conventions at k = 2, 3.
    """
    return tuple(reversed(pt.partitions_of(k)))


def check_group(k: int, n: int) -> None:
    """Refuse the group of k-block permutations of [kn]: ValueError if k < 1, SizeMismatch if n < 0."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if n < 0:
        raise SizeMismatch(f"no group of size {n}")


class Immutable:
    """A value whose slots are set once, when it is built: writes and `del` raise AttributeError.

    `_of(*slots)` is the one unchecked constructor: it sets the slots in
    `__slots__` order and runs no check, so a subclass's validating
    constructor returns it.  Each subclass binds its slots' own setters
    once, as `_setters` in `__slots__` order, and `_of` calls them.  Two
    values are equal when they have the same type and equal slots, and hash
    by their slots; pickling and copying go through `_of`, so an unpickled
    value is not checked again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slot descriptors' setters bypass __setattr__ below, which refuses every write
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _of(cls, *slots):
        value = object.__new__(cls)
        for setter, slot in zip(cls._setters, slots):
            setter(value, slot)
        return value

    def __reduce__(self):
        return type(self)._of, tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class PartitionFamily(Immutable):
    """An assignment of a partition to every partition of k, one shared object per label."""

    __slots__ = ("k", "components", "size", "m1")

    def __new__(cls, k: int, assignment=None):
        """The family of a mapping {partition of k: partition}, as its shared label.

        Missing keys mean the empty partition.  Keys must be partitions
        of exactly k.
        """
        check_group(k, 0)
        keys = index_partitions(k)
        comps = {key: () for key in keys}
        if assignment:
            for key, value in dict(assignment).items():
                key = pt.as_partition(key)
                if key not in comps:
                    raise ValueError(f"{key} is not a partition of {k}")
                comps[key] = pt.as_partition(value)
        return cls._of(k, tuple(comps[key] for key in keys))

    @classmethod
    def _of(cls, k: int, components: tuple) -> "PartitionFamily":
        """The shared family with these components, unchecked.

        `components` must already be partitions in index_partitions(k) order.
        """
        fam = _LABELS.get((k, components))
        if fam is None:
            fam = object.__new__(cls)
            object.__setattr__(fam, "k", k)
            object.__setattr__(fam, "components", components)
            object.__setattr__(fam, "size", sum(map(sum, components)))
            # the number of 1-parts in the all-ones component
            object.__setattr__(fam, "m1", components[0].count(1))
            fam = _LABELS.setdefault((k, components), fam)
        return fam

    @classmethod
    def from_components(cls, k: int, components) -> "PartitionFamily":
        """Build from a sequence of partitions in index_partitions(k) order."""
        components = tuple(components)
        if len(components) != len(index_partitions(k)):
            raise ValueError(
                f"expected {len(index_partitions(k))} components for k={k}, got {len(components)}"
            )
        return cls(k, dict(zip(index_partitions(k), components)))

    @classmethod
    def empty(cls, k: int) -> "PartitionFamily":
        return cls(k)

    @classmethod
    def identity(cls, k: int, n: int) -> "PartitionFamily":
        """The family of the identity element of the k-block group on [kn]."""
        check_group(k, n)
        return cls(k, {(1,) * k: (1,) * n})

    def component(self, rho) -> Partition:
        rho = pt.as_partition(rho)
        return self.components[index_partitions(self.k).index(rho)]

    @property
    def ones_component(self) -> Partition:
        """The component attached to the all-ones partition (1^k)."""
        return self.components[0]

    def is_proper(self) -> bool:
        """True iff the all-ones component has no 1-parts."""
        return not self.m1

    def items(self):
        """(key partition, component) pairs in index order."""
        return tuple(zip(index_partitions(self.k), self.components))

    def replace(self, rho, value) -> "PartitionFamily":
        """The family with the component at `rho` replaced."""
        mapping = dict(self.items())
        mapping[pt.as_partition(rho)] = pt.as_partition(value)
        return PartitionFamily(self.k, mapping)

    def sort_key(self):
        return self.components

    def __reduce__(self):
        return PartitionFamily._of, (self.k, self.components)

    # one shared object per label, so equality and hashing are identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self):
        return f"PartitionFamily(k={self.k}, {format_family(self)!r})"


# the shared labels of PartitionFamily._of, keyed by (k, components)
_LABELS: dict = {}


def pad_family(fam: PartitionFamily, n: int) -> PartitionFamily:
    """Grow the family to size n by appending 1-parts to the all-ones component; at |fam| it is fam."""
    if n == fam.size:
        return fam
    if n < fam.size:
        raise TooSmall(f"cannot pad family of size {fam.size} to size {n}")
    padded = fam.ones_component + (1,) * (n - fam.size)
    return PartitionFamily._of(fam.k, (padded,) + fam.components[1:])


@cache
def big_z(fam: PartitionFamily) -> int:
    """Centralizer order factor: product over keys rho of z(component) * z(rho)^len(component).

    The conjugacy class labelled by a family of size n has exactly
    n! * (k!)^n / big_z elements.  Computed once per label.
    """
    z = 1
    for rho, comp in fam.items():
        z *= pt.z_of(comp) * pt.z_of(rho) ** len(comp)
    return z


def group_order(k: int, n: int) -> int:
    """Order of the group of k-block permutations of [kn]: (k!)^n * n!."""
    check_group(k, n)
    return factorial(k) ** n * factorial(n)


def class_size(fam: PartitionFamily, n: int) -> int:
    """Number of k-block permutations of [kn] whose type is `fam` (requires size n)."""
    if fam.size != n:
        raise SizeMismatch(f"family has size {fam.size}, expected {n}")
    return _orbit_size(fam)


@cache
def _orbit_size(fam: PartitionFamily) -> int:
    """|C_fam| in the group on [k |fam|]: computed, and its divisibility checked, once per label.

    With s = |fam|, m1 its trivial 1-parts, p = s - m1 and pi the family
    without them, |C_fam| = k!^s s! / big_z(fam) = k!^p (s)_p / big_z(pi):
    big_z(fam) is big_z(pi) m1! k!^m1, so no factorial of s is taken.
    """
    p = fam.size - fam.m1
    return exact_quotient(factorial(fam.k) ** p * perm(fam.size, p), big_z(_proper_family(fam)), "class size")


@cache
def _proper_family(fam: PartitionFamily) -> PartitionFamily:
    """The shared family with the 1-parts of its all-ones component removed, once per label."""
    return PartitionFamily._of(fam.k, (pt.proper_part(fam.ones_component),) + fam.components[1:])


def partial_class_size(fam: PartitionFamily, n: int) -> int:
    """Number of k-partial permutations of n in the orbit labelled by `fam`.

    A member is a choice of |fam| domain blocks and a permutation of type
    `fam` on them: C(n, |fam|) * class_size(fam, |fam|), the class size kept
    per label.  Returns 0 when the family is too large to fit, which makes
    projection formulas total; an impossible (k, n) is refused by `check_group`.
    """
    check_group(fam.k, n)
    if fam.size > n:
        return 0
    return comb(n, fam.size) * _orbit_size(fam)


def families_with_size(k: int, n: int, proper_only: bool = False):
    """All families with total size n, each exactly once, in a deterministic order.

    With proper_only, restrict to families whose all-ones component has no
    1-parts.  Output is sorted by the canonical component order.
    """
    check_group(k, n)
    keys = index_partitions(k)

    def gen(slot, remaining):
        if slot == len(keys) - 1:
            for p in pt.partitions_of(remaining):
                yield (p,)
            return
        for s in range(remaining + 1):
            for p in pt.partitions_of(s):
                for rest in gen(slot + 1, remaining - s):
                    yield (p,) + rest

    out = [PartitionFamily._of(k, comps) for comps in gen(0, n)]
    if proper_only:
        out = [fam for fam in out if fam.is_proper()]
    out.sort(key=PartitionFamily.sort_key)
    return out


def binomial_pad_factor(fam: PartitionFamily, n: int) -> int:
    """Multiplicity picked up when a partial class of this type extends to [kn]."""
    return comb(n - fam.size + fam.m1, fam.m1)


@cache
def format_family(fam: PartitionFamily) -> str:
    """Text form `{[1,1]:[3,1]; [2]:[2]}`: empty components omitted, `{}` if all empty.

    Computed once per label.
    """
    entries = [
        f"{pt.format_partition(rho)}:{pt.format_partition(comp)}"
        for rho, comp in fam.items()
        if comp
    ]
    return "{" + "; ".join(entries) + "}"


def parse_family(text: str, k: int) -> PartitionFamily:
    """Parse the format_family text form; entry order and spacing are free."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a family literal: {text!r}")
    body = text[1:-1].strip()
    mapping = {}
    if body:
        for entry in body.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            key_text, sep, value_text = entry.partition(":")
            if not sep:
                raise ValueError(f"family entry {entry!r} lacks a ':'")
            key = pt.parse_partition(key_text)
            if sum(key) != k:
                raise ValueError(f"family key {key_text.strip()} is not a partition of {k}")
            if key in mapping:
                raise ValueError(f"duplicate family key {key_text.strip()}")
            mapping[key] = pt.parse_partition(value_text)
    return PartitionFamily(k, mapping)
