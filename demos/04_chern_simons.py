"""Chern-Simons invariants of the flat connections and their identification
with degree-4 group cohomology classes.

Run:  python demos/04_chern_simons.py
"""
from fractions import Fraction

from bpfloer import I_STAR, O_STAR, T_STAR, chern_simons, group_cohomology
from bpfloer.cs import c2_class, cs_table, q_vertex
from bpfloer.groups import binary_dihedral, cyclic, parse_group

print("=" * 72)
print("The invariant is the augmentation/order ratio of one minimal solution")
print("of the representation-ring equation against the trivial connection.")
print("=" * 72)
for name in ("T*", "O*", "I*", "D*_4", "C_7"):
    g = parse_group(name)
    print("%s:" % g)
    for vname, v, c2 in cs_table(g):
        print("   %-10s cs = %-8s  c2 = %s" % (vname, v, c2))

print()
print("The vertex carrying the defining 2-dimensional representation always")
print("lands on -1/|G| (equivalently, its second Chern class generates):")
for g in [T_STAR, O_STAR, I_STAR, cyclic(9), binary_dihedral(6)]:
    v = chern_simons(g, q_vertex(g))
    print("  %-5s cs(Q) = %s  =  -1/%d mod 1" % (g, v, g.order))
    assert v.value == Fraction(g.order - 1, g.order)

print()
print("Degree-by-degree integral group cohomology (4-periodic above zero):")
for g in [T_STAR, O_STAR, I_STAR, binary_dihedral(4)]:
    row = ["H^%d = %s" % (i, group_cohomology(g, i)) for i in range(0, 7)]
    print("  %-5s %s" % (g, ", ".join(row)))
