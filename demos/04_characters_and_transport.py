"""Characters and the shifted power-sum transport.

Symmetric group characters (k=1) and signed-pair characters (k=2) give
exact rational evaluations of shifted power sums on partitions and on
pairs of partitions.  Sending each class label to its scaled shifted
power sum turns class-sum products into pointwise products of functions,
and the multiplication tables on the two sides agree exactly.  The same
check runs at any k, with points labelled by families of partitions.
"""

from wreathcenter import PartitionFamily, format_partition, sym_character, verify_iso
from wreathcenter.characters import (
    bipartitions_of,
    hyperoct_character,
    shifted_power_sum_eval,
    transport_value,
)
from wreathcenter.partitions import partitions_of


def fam(k, *components):
    return PartitionFamily.from_components(k, components)


print("character table of the symmetric group on 4 letters:")
labels = partitions_of(4)
print("            " + "  ".join(f"{format_partition(d):>9s}" for d in labels))
for rho in labels:
    row = "  ".join(f"{sym_character(rho, d):9d}" for d in labels)
    print(f"{format_partition(rho):>10s}  {row}")
print()

print("signed-pair character values on the class ((1),(1)):")
for rho in bipartitions_of(2):
    value = hyperoct_character(rho, ((1,), (1,)))
    print(f"    rho = {rho}: {value}")
print()

print("shifted power sum at index [2], evaluated on small partitions:")
for lam in [(), (1,), (2,), (1, 1), (3,), (2, 1), (2, 2)]:
    print(f"    p#[2]({format_partition(lam)}) = {shifted_power_sum_eval((2,), lam)}")
print()

left = fam(1, (2,))
right = fam(1, (3,))
print("transport multiplicativity, k=1, on C[2] * C[3]:", verify_iso(1, left, right))

two = fam(2, (), (2,))
print("transport multiplicativity, k=2, on C{[2]:[2]} squared:", verify_iso(2, two, two))

point = ((2,), (1,))
product_value = transport_value(two, point) ** 2
print(f"  e.g. the transported square evaluated at {point} is {product_value}")

three = fam(3, (), (1,), ())
print("transport multiplicativity, k=3, on C{[2,1]:[1]} squared:", verify_iso(3, three, three))
