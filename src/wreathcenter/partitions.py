"""Exact integer-partition arithmetic.

A partition is stored as a weakly decreasing tuple of positive integers;
the empty tuple is the empty partition.  All counting is done with
Python's arbitrary-precision integers, so nothing here overflows.
"""

from collections import Counter
from functools import cache
from math import factorial
from operator import index

from .errors import NotContained, TooSmall

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Normalize an iterable of positive integers into a partition tuple.

    Parts are sorted decreasingly; zero parts are dropped; negative parts
    are rejected, and so is a part that is not an integer (TypeError).
    """
    out = tuple(sorted((p for p in map(index, parts) if p), reverse=True))
    if out and out[-1] < 0:
        raise ValueError(f"negative part in partition {out}")
    return out


def is_partition(parts) -> bool:
    """True iff `parts` is a weakly decreasing tuple of positive integers."""
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(p >= 1 for p in parts)


def union(a: Partition, b: Partition) -> Partition:
    """Multiset union: multiplicities add."""
    return as_partition(a + b)


def subtract(a: Partition, b: Partition) -> Partition:
    """Multiset difference `a` minus `b`.

    Raises NotContained unless every multiplicity of `b` is available in `a`.
    """
    counts = Counter(a)
    counts.subtract(Counter(b))
    if any(c < 0 for c in counts.values()):
        raise NotContained(f"{b} is not a sub-multiset of {a}")
    return as_partition(counts.elements())


def is_proper(a: Partition) -> bool:
    """True iff `a` has no part equal to 1."""
    return 1 not in a


def proper_part(a: Partition) -> Partition:
    """The partition `a` with all 1-parts removed."""
    return tuple(p for p in a if p != 1)


def pad_to(a: Partition, n: int) -> Partition:
    """Extend `a` to a partition of `n` by appending parts equal to 1."""
    if n < sum(a):
        raise TooSmall(f"cannot pad {a} (size {sum(a)}) to size {n}")
    return a + (1,) * (n - sum(a))


def z_of(a: Partition) -> int:
    """The centralizer order factor: product over r of r^(m_r) * m_r!.

    For a partition of n this divides n! exactly, and n!/z is the number
    of permutations with that cycle type.
    """
    z = 1
    for r, m in Counter(a).items():
        z *= r**m * factorial(m)
    return z


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of `n` in reverse-lexicographic order, (n) first.

    The order is fixed so that every table keyed by partitions is
    byte-stable across runs.
    """
    if n < 0:
        return ()

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def format_partition(p: Partition) -> str:
    """Bracketed comma-separated text form, e.g. `[3,1,1]`; `[]` when empty."""
    return "[" + ",".join(str(part) for part in p) + "]"


def parse_partition(text: str) -> Partition:
    """Parse the `[3,1,1]` text form produced by format_partition."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a partition literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    try:
        parts = [int(piece) for piece in body.split(",")]
    except ValueError as exc:
        raise ValueError(f"not a partition literal: {text!r}") from exc
    if any(p < 1 for p in parts):
        raise ValueError(f"partition parts must be positive: {text!r}")
    return as_partition(parts)
