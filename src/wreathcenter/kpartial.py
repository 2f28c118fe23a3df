"""k-partial permutations: block permutations carried on a finite set of blocks.

A k-partial permutation is a pair (domain, perm) where the domain is a
finite set of block indices and perm is a block permutation of the
corresponding points.  Products extend both factors by the identity to the
union of domains, so the set of all of them is a semigroup whose orbit
sums span the universal algebra projecting onto every group-algebra
center.

Every element is stored as its domain and one padded image tuple: the
1-based images of all points of [k * max(domain)], with the identity on
the blocks outside the domain.  Extending by the identity is then padding
the tuple, and a product is a composition of two padded tuples, exactly
as for `BlockPermutation`.

An orbit of the conjugation action is one class of the k-block group on
m blocks placed on every m-subset of the blocks: its members are built
once on blocks 1..m and carried onto each m-subset by the order-preserving
relabelling of blocks.  The semigroup oracle `enumerate_kpartial` carries
whole groups the same way.
"""

from functools import cache
from itertools import combinations
from math import comb, factorial, perm

from .blockperm import (
    DEFAULT_BUDGET,
    BlockPermutation,
    block_of,
    block_points,
    class_mappings_on_blocks,
    class_representative,
    conjugate,
    enumerate_group,
    is_block_permutation,
    type_from_images,
)
from .errors import BudgetExceeded, DimensionMismatch, DomainNotCovered, SizeMismatch
from .families import PartitionFamily, _orbit_size


class KPartialPermutation:
    """A pair (blocks, perm) stored as a padded image tuple.

    The constructor takes distinct domain blocks, in any order, and the
    images of the domain points in increasing order.  The `images`
    attribute holds the images of every point of [k * max(blocks)]: perm
    on the domain, the identity on each block outside it.
    """

    __slots__ = ("k", "blocks", "images")

    def __init__(self, k: int, blocks, images):
        blocks = tuple(sorted(blocks))
        images = tuple(images)
        if blocks and blocks[0] < 1:
            raise ValueError("domain blocks must be positive integers")
        if len(set(blocks)) < len(blocks):
            raise ValueError("domain blocks must be distinct")
        points = [x for b in blocks for x in block_points(b, k)]
        if sorted(images) != points:
            raise ValueError("images must be a bijection of the domain points")
        padded = list(range(1, k * max(blocks, default=0) + 1))
        for x, y in zip(points, images):
            padded[x - 1] = y
        if not is_block_permutation(padded, k):
            raise ValueError("perm must send each domain block onto a domain block")
        _init(self, k, blocks, tuple(padded))

    @classmethod
    def empty(cls, k: int) -> "KPartialPermutation":
        """The semigroup identity: the trivial permutation of the empty set."""
        return cls(k, (), ())

    @property
    def points(self) -> tuple[int, ...]:
        return tuple(x for b in self.blocks for x in block_points(b, self.k))

    def __setattr__(self, name, value):
        raise AttributeError("KPartialPermutation is immutable")

    def __reduce__(self):
        return _padded, (self.k, self.blocks, self.images)

    def __eq__(self, other):
        return (
            isinstance(other, KPartialPermutation)
            and self.k == other.k
            and self.blocks == other.blocks
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.k, self.blocks, self.images))

    def to_text(self) -> str:
        blocks = "[" + ",".join(str(b) for b in self.blocks) + "]"
        images = "(" + ",".join(str(self.images[x - 1]) for x in self.points) + ")"
        return f"{{blocks:{blocks}; k:{self.k}; images:{images}}}"

    @classmethod
    def from_text(cls, text: str) -> "KPartialPermutation":
        body = text.strip().removeprefix("{").removesuffix("}")
        fields = {}
        for entry in body.split(";"):
            name, _, value = entry.strip().partition(":")
            fields[name.strip()] = value.strip()
        k = int(fields["k"])
        blocks_body = fields["blocks"].removeprefix("[").removesuffix("]")
        blocks = [int(b) for b in blocks_body.split(",")] if blocks_body else []
        images_body = fields["images"].removeprefix("(").removesuffix(")")
        images = [int(y) for y in images_body.split(",")] if images_body else []
        return cls(k, blocks, images)

    def __repr__(self):
        return f"KPartialPermutation({self.to_text()})"

    def __mul__(self, other: "KPartialPermutation") -> "KPartialPermutation":
        return product(self, other)


def _init(p, k, blocks, images):
    object.__setattr__(p, "k", k)
    object.__setattr__(p, "blocks", blocks)
    object.__setattr__(p, "images", images)


def _padded(k: int, blocks: tuple, images: tuple) -> KPartialPermutation:
    """An element from sorted blocks and an already padded image tuple, unchecked."""
    p = object.__new__(KPartialPermutation)
    _init(p, k, blocks, images)
    return p


def _pad(images: tuple, width: int) -> tuple:
    return images + tuple(range(len(images) + 1, width + 1))


def product(p: KPartialPermutation, q: KPartialPermutation) -> KPartialPermutation:
    """Compose after extending both factors by the identity to the union of domains."""
    if p.k != q.k:
        raise DimensionMismatch("factors must share the same block size k")
    width = max(len(p.images), len(q.images))
    outer, inner = _pad(p.images, width), _pad(q.images, width)
    blocks = tuple(sorted(set(p.blocks).union(q.blocks)))
    return _padded(p.k, blocks, tuple(outer[y - 1] for y in inner))


def support(p: KPartialPermutation) -> tuple[int, ...]:
    """Blocks of the domain on which the permutation moves at least one point."""
    return tuple(
        b for b in p.blocks if any(p.images[x - 1] != x for x in block_points(b, p.k))
    )


def act(sigma: BlockPermutation, p: KPartialPermutation) -> KPartialPermutation:
    """Conjugation action: (domain, perm) goes to (sigma(domain), sigma perm sigma^-1)."""
    moved = conjugate(sigma, extend(p, sigma.n))
    k = p.k
    blocks = tuple(sorted(block_of(sigma((b - 1) * k + 1), k) for b in p.blocks))
    return _padded(k, blocks, moved.images[: k * max(blocks, default=0)])


def extend(p: KPartialPermutation, n: int) -> BlockPermutation:
    """The block permutation of [kn] agreeing with p on its domain, identity elsewhere."""
    if p.blocks and p.blocks[-1] > n:
        raise DomainNotCovered(f"domain blocks {p.blocks} do not fit in [{n}]")
    return BlockPermutation(p.k, n, _pad(p.images, p.k * n), _checked=True)


def kp_type(p: KPartialPermutation) -> PartitionFamily:
    """Type of the carried permutation; total size equals the number of domain blocks."""
    return type_from_images(p.k, p.blocks, p.images)


def partial_class_size(fam: PartitionFamily, n: int) -> int:
    """Number of k-partial permutations of n in the orbit labelled by `fam`.

    A member is a choice of |fam| domain blocks and a permutation of type
    `fam` on them: C(n, |fam|) * class_size(fam, |fam|), the class size kept
    per label.  Returns 0 when the family is too large to fit, which makes
    projection formulas total.
    """
    if fam.size > n:
        return 0
    return comb(n, fam.size) * _orbit_size(fam)


def count_all(k: int, n: int) -> int:
    """Total number of k-partial permutations of n: sum of (n falling r) * (k!)^r."""
    return sum(perm(n, r) * factorial(k) ** r for r in range(n + 1))


def _relabellings(k: int, m: int, n: int):
    """For every m-subset of the blocks of [n]: the subset and its relabelling map.

    The map sends local point z (0-based) of blocks 1..m to point z % k + 1
    of block blocks[z // k], so block order is preserved.
    """
    for blocks in combinations(range(1, n + 1), m):
        yield blocks, [(blocks[z // k] - 1) * k + z % k + 1 for z in range(k * m)]


def _relabel(k: int, blocks, to_global, local) -> KPartialPermutation:
    """The element carried on `blocks` by a 1-based image tuple `local` on blocks 1..m."""
    images = list(range(1, k * max(blocks, default=0) + 1))
    for x, y in zip(to_global, local):
        images[x - 1] = to_global[y - 1]
    return _padded(k, blocks, tuple(images))


def universal_class_members(
    fam: PartitionFamily, n: int, budget: int = DEFAULT_BUDGET
):
    """All k-partial permutations of n with type `fam` and exactly |fam| domain blocks.

    The orbit is the class of `fam` built once on blocks 1..|fam|, each
    member relabelled onto every |fam|-subset of the blocks of [n]; only the
    relabelling maps are held.
    """
    if fam.size > n:
        raise SizeMismatch(f"family of size {fam.size} does not fit in [{n}]")
    total = partial_class_size(fam, n)
    if total > budget:
        raise BudgetExceeded(total, budget, "partial class enumeration")
    k, m = fam.k, fam.size
    maps = list(_relabellings(k, m, n))
    for local in class_mappings_on_blocks(fam, range(1, m + 1)):
        for blocks, to_global in maps:
            yield _relabel(k, blocks, to_global, local)


def partial_class_representative(fam: PartitionFamily, n: int) -> KPartialPermutation:
    """The first member that class_mappings_on_blocks builds on blocks 1..|fam|.

    The size is checked on every call; the member is built once per label
    and shares its image tuple with class_representative(fam, |fam|).
    """
    if fam.size > n:
        raise SizeMismatch(f"family of size {fam.size} does not fit in [{n}]")
    return _first_member(fam)


@cache
def _first_member(fam: PartitionFamily) -> KPartialPermutation:
    rep = class_representative(fam, fam.size)
    return _padded(fam.k, tuple(range(1, fam.size + 1)), rep.images)


def enumerate_kpartial(k: int, n: int, budget: int = DEFAULT_BUDGET):
    """Every k-partial permutation of n, grouped by domain; `budget` bounds their number."""
    total = count_all(k, n)
    if total > budget:
        raise BudgetExceeded(total, budget, "partial permutation enumeration")
    for r in range(n + 1):
        for blocks, to_global in _relabellings(k, r, n):
            for omega in enumerate_group(k, r, budget):
                yield _relabel(k, blocks, to_global, omega.images)
