"""The group of k-block permutations of [kn].

Elements are permutations of {1,...,kn} that send every block
{(i-1)k+1,...,ik} onto another such block.  Composition is right-to-left:
(sigma*omega)(x) = sigma(omega(x)).

The central algorithm here is type extraction: the disjoint cycles of an
element are grouped into clusters according to how they meet a single
block; a cluster meeting a block in point-counts rho and spanning m whole
blocks contributes a part m to the component at rho.  Two elements are
conjugate exactly when their types agree, and the class sizes come out of
`families.class_size`.  Every element built here, or unpickled, comes from
the unchecked `BlockPermutation._of(k, n, images)`, whose images must
already be a block permutation tuple; only the public constructor checks.
"""

from collections import Counter, defaultdict
from functools import cache
from itertools import combinations, permutations, product

from . import partitions as pt
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DimensionMismatch,
    SizeMismatch,
)
from .families import Immutable, PartitionFamily, check_group, class_size, group_order, index_partitions
from .partitions import Partition


def block_of(point: int, k: int) -> int:
    return (point - 1) // k + 1


def block_points(block: int, k: int) -> range:
    return range((block - 1) * k + 1, block * k + 1)


def is_block_permutation(images, k: int) -> bool:
    """True iff the bijection given by `images` maps every k-block onto a k-block."""
    m = len(images)
    if k < 1 or m % k != 0 or sorted(images) != list(range(1, m + 1)):
        return False
    for b in range(1, m // k + 1):
        targets = {block_of(images[p - 1], k) for p in block_points(b, k)}
        if len(targets) != 1:
            return False
    return True


def cycle_type(images) -> Partition:
    """Cycle type of a permutation of [m] given as a 1-based image tuple."""
    m = len(images)
    seen = [False] * (m + 1)
    lengths = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        n_steps, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x - 1]
            n_steps += 1
        lengths.append(n_steps)
    return pt.as_partition(lengths)


def type_from_images(k: int, blocks, images) -> PartitionFamily:
    """Type of the block permutation that `images` carries on `blocks`.

    `images` is a 1-based image tuple; only the points of `blocks` are read,
    so it may be wider than they are.  Walks the blocks in increasing order.
    A block whose first point has been visited belongs to an earlier
    cluster.  Otherwise the cycles through its points are walked: how many
    points each has in the block gives the pattern rho, and the blocks they
    visit give the part m recorded in the component at rho.  The label is
    the shared one of `PartitionFamily._of`.
    """
    seen = [False] * (len(images) + 1)
    parts = defaultdict(list)
    for b in sorted(blocks):
        first = (b - 1) * k + 1
        if seen[first]:
            continue
        meeting = []
        span = set()
        total_points = 0
        for p in range(first, first + k):
            if seen[p]:
                continue
            inside, x = 0, p
            while not seen[x]:
                seen[x] = True
                span.add((x - 1) // k)
                inside += first <= x < first + k
                total_points += 1
                x = images[x - 1]
            meeting.append(inside)
        if total_points != k * len(span):
            raise ValueError("cycles of a block permutation must cover whole blocks")
        meeting.sort(reverse=True)
        parts[tuple(meeting)].append(len(span))
    slots = _component_slots(k)
    components = [()] * len(slots)
    for rho, ms in parts.items():
        ms.sort(reverse=True)
        components[slots[rho]] = tuple(ms)
    return PartitionFamily._of(k, tuple(components))


@cache
def _component_slots(k: int) -> dict:
    """Position of each partition of k among a family's components."""
    return {rho: i for i, rho in enumerate(index_partitions(k))}


class BlockPermutation(Immutable):
    """A permutation of [kn] sending k-blocks to k-blocks, stored as a 1-based image tuple."""

    __slots__ = ("k", "n", "images")

    def __new__(cls, k: int, n: int, images):
        check_group(k, n)
        images = tuple(images)
        if len(images) != k * n:
            raise DimensionMismatch(f"expected {k * n} images, got {len(images)}")
        if not is_block_permutation(images, k):
            raise ValueError("images do not define a block permutation")
        return cls._of(k, n, images)

    @classmethod
    def identity(cls, k: int, n: int) -> "BlockPermutation":
        check_group(k, n)
        return cls._of(k, n, tuple(range(1, k * n + 1)))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "BlockPermutation") -> "BlockPermutation":
        if self.k != other.k or self.n != other.n:
            raise DimensionMismatch("cannot compose elements of different groups")
        return BlockPermutation._of(self.k, self.n, tuple(self.images[y - 1] for y in other.images))

    def inverse(self) -> "BlockPermutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return BlockPermutation._of(self.k, self.n, tuple(inv))

    def quotient(self) -> tuple[int, ...]:
        """The induced permutation of block indices, as a 1-based image tuple."""
        k = self.k
        return tuple(block_of(self.images[(i - 1) * k], k) for i in range(1, self.n + 1))

    def type_of(self) -> PartitionFamily:
        return type_from_images(self.k, range(1, self.n + 1), self.images)

    def to_text(self) -> str:
        return "(" + ",".join(str(y) for y in self.images) + ")"

    def __repr__(self):
        return f"BlockPermutation(k={self.k}, n={self.n}, {self.to_text()})"


def conjugate(sigma: BlockPermutation, omega: BlockPermutation) -> BlockPermutation:
    """sigma * omega * sigma^-1; preserves the type."""
    return sigma * omega * sigma.inverse()


def enumerate_group(k: int, n: int, budget: int = DEFAULT_BUDGET):
    """All k-block permutations of [kn], each exactly once, in a fixed order."""
    order = group_order(k, n)
    if order > budget:
        raise BudgetExceeded(order, budget, "group enumeration")
    fills_pool = tuple(permutations(range(k)))
    for quot in permutations(range(1, n + 1)):
        bases = tuple((quot[i] - 1) * k for i in range(n))
        for fills in product(fills_pool, repeat=n):
            images = [0] * (k * n)
            pos = 0
            for i in range(n):
                base = bases[i]
                for b in fills[i]:
                    images[pos] = base + b + 1
                    pos += 1
            yield BlockPermutation._of(k, n, tuple(images))


# -- direct class construction ------------------------------------------------
#
# An element of the class labelled by a family is assembled cluster by
# cluster: pick the blocks of each cluster, a cyclic order on them, free
# bijections along the cycle, and a closing bijection chosen so the
# first-return map to the starting block has the prescribed cycle type.
# Every class element arises from exactly one such choice.


def _compose_local(a, b):
    return tuple(a[x] for x in b)


def _invert_local(a):
    inv = [0] * len(a)
    for i, y in enumerate(a):
        inv[y] = i
    return tuple(inv)


@cache
def _perms_of_type(k: int, rho: Partition) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in permutations(range(k)) if cycle_type(tuple(x + 1 for x in p)) == rho)


def _write_cluster(images, k, cycle, locals_, closing):
    m = len(cycle)
    for j in range(m):
        src = (cycle[j] - 1) * k
        dst = (cycle[(j + 1) % m] - 1) * k
        local = locals_[j] if j < m - 1 else closing
        for i in range(k):
            images[src + i] = dst + local[i] + 1


def _cluster_choices(k, rho, cluster_blocks):
    """All (cycle, locals, closing) realizing one cluster with pattern rho on the given blocks."""
    b0, rest = cluster_blocks[0], cluster_blocks[1:]
    all_locals = tuple(permutations(range(k)))
    closings = _perms_of_type(k, rho)
    for order in permutations(rest):
        cycle = (b0,) + order
        for locals_ in product(all_locals, repeat=len(cycle) - 1):
            composite = tuple(range(k))
            for t in locals_:
                composite = _compose_local(t, composite)
            inv = _invert_local(composite)
            for c in closings:
                yield cycle, locals_, _compose_local(c, inv)


def class_mappings_on_blocks(fam: PartitionFamily, blocks):
    """Every element with type `fam` on the given blocks, as image tuples.

    Each tuple covers [k * max(blocks)] and is the identity off `blocks`.
    The smallest block not yet placed opens the next cluster: every kind
    (rho, m) of cluster the family still needs is tried there, with every
    choice of its other m - 1 blocks, so each element is built once and no
    branch is a dead end.
    """
    blocks = tuple(sorted(blocks))
    if blocks and (blocks[0] < 1 or len(set(blocks)) != len(blocks)):
        raise ValueError("blocks must be distinct positive integers")
    if fam.size != len(blocks):
        raise SizeMismatch(f"family of size {fam.size} needs {fam.size} blocks, got {len(blocks)}")
    k = fam.k
    needed = Counter((rho, m) for rho, comp in fam.items() for m in comp)
    images = list(range(1, k * max(blocks, default=0) + 1))

    def rec(available):
        if not available:
            yield tuple(images)
            return
        first, rest = available[0], available[1:]
        for (rho, m), count in needed.items():
            if not count:
                continue
            needed[rho, m] -= 1
            for others in combinations(rest, m - 1):
                remaining = tuple(b for b in rest if b not in others)
                # the clusters on one path cover every block, so each yield
                # has overwritten whatever an earlier path wrote
                for cycle, locals_, closing in _cluster_choices(k, rho, (first,) + others):
                    _write_cluster(images, k, cycle, locals_, closing)
                    yield from rec(remaining)
            needed[rho, m] += 1

    yield from rec(blocks)


def class_representative(fam: PartitionFamily, n: int) -> BlockPermutation:
    """The first member that class_mappings_on_blocks builds on blocks 1..n (requires size n).

    `families.class_size` checks the size on every call; the member is built
    once per label and shared, which is safe because elements are immutable.
    """
    class_size(fam, n)
    return _first_member(fam)


@cache
def _first_member(fam: PartitionFamily) -> BlockPermutation:
    n = fam.size
    images = next(class_mappings_on_blocks(fam, range(1, n + 1)))
    return BlockPermutation._of(fam.k, n, images)


def enumerate_class(fam: PartitionFamily, n: int, budget: int = DEFAULT_BUDGET):
    """All elements of the conjugacy class labelled by `fam`, each exactly once.

    The class is built cluster by cluster and the rest of the group is
    never touched.  A class larger than `budget` raises BudgetExceeded
    before any element is built.
    """
    size = class_size(fam, n)
    if size > budget:
        raise BudgetExceeded(size, budget, "class enumeration")
    for images in class_mappings_on_blocks(fam, range(1, n + 1)):
        yield BlockPermutation._of(fam.k, n, images)
