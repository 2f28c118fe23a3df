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

Four results are kept for the life of the process.  Per label: `big_z`, the orbit size
|C_fam| at stage |fam| (`_orbit_size`), and the class representative, a
`BlockPermutation` and a `KPartialPermutation` that share one image tuple
(`blockperm.class_representative`, `kpartial.partial_class_representative`).  Per
(k, n): `group_order`.  The per-label memos grow with the distinct labels a process sees,
so they are bounded by the number of families of the sizes in use (415 at k = 3 and sizes
up to 6, whose representatives take about 0.5 MB); the group orders hold one integer per
size in use.  An orbit size is checked to divide the group order when it is first
computed; `class_size`, `kpartial.partial_class_size` and the product checks read it.
The representative functions and `class_size` still check the size on every call.
"""

from functools import cache
from math import comb, factorial

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


class PartitionFamily:
    """An assignment of a partition to every partition of k, one shared object per label."""

    __slots__ = ("k", "components", "size", "m1")

    def __new__(cls, k: int, assignment=None):
        """The family of a mapping {partition of k: partition}, as its shared label.

        Missing keys mean the empty partition.  Keys must be partitions
        of exactly k.
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
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
        A new label is stored with `setdefault`, so two threads that build it
        at once both get the stored one.
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
        return cls(k, {(1,) * k: (1,) * n})

    def component(self, rho) -> Partition:
        rho = pt.as_partition(rho)
        return self.components[index_partitions(self.k).index(rho)]

    @property
    def ones_component(self) -> Partition:
        """The component attached to the all-ones partition (1^k)."""
        return self.components[0]

    def is_proper(self) -> bool:
        return pt.is_proper(self.ones_component)

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

    def __setattr__(self, name, value):
        raise AttributeError("PartitionFamily is immutable")

    def __reduce__(self):
        return PartitionFamily._of, (self.k, self.components)

    def __repr__(self):
        return f"PartitionFamily(k={self.k}, {format_family(self)!r})"


# the shared labels of PartitionFamily._of, keyed by (k, components)
_LABELS: dict = {}


def pad_family(fam: PartitionFamily, n: int) -> PartitionFamily:
    """Grow the family to total size n by appending 1-parts to the all-ones component."""
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


@cache
def group_order(k: int, n: int) -> int:
    """Order of the group of k-block permutations of [kn]: (k!)^n * n!, computed once per (k, n)."""
    return factorial(k) ** n * factorial(n)


def class_size(fam: PartitionFamily, n: int) -> int:
    """Number of k-block permutations of [kn] whose type is `fam` (requires size n)."""
    if fam.size != n:
        raise SizeMismatch(f"family has size {fam.size}, expected {n}")
    return _orbit_size(fam)


@cache
def _orbit_size(fam: PartitionFamily) -> int:
    """|C_fam| in the group on [k |fam|]: computed, and its divisibility checked, once per label."""
    return exact_quotient(group_order(fam.k, fam.size), big_z(fam), "class size")


def families_with_size(k: int, n: int, proper_only: bool = False):
    """All families with total size n, each exactly once, in a deterministic order.

    With proper_only, restrict to families whose all-ones component has no
    1-parts.  Output is sorted by the canonical component order.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
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


def format_family(fam: PartitionFamily) -> str:
    """Text form `{[1,1]:[3,1]; [2]:[2]}`: empty components omitted, `{}` if all empty."""
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
