"""Chern-Simons invariants of flat connections and group-cohomology classes.

The invariant of a flat connection is the augmentation/order ratio of one
solution of the representation-ring equation against the trivial vertex
theta: one solve per flat connection. Values live in Q/Z with the canonical
representative in [0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .donaldson import BAR, STD
from .errors import BPFloerError
from .groups import GroupId, quaternionic_reps
from .mckay import VirtualRep, solve_rep_equation


@dataclass(frozen=True)
class CsValue:
    """An element of Q/Z, stored by its representative in [0, 1)."""

    value: Fraction

    def __post_init__(self):
        if not (0 <= self.value < 1):
            raise BPFloerError("CsValue representative must lie in [0,1)")

    @classmethod
    def of(cls, x):
        x = Fraction(x)
        return cls(x - (x // 1))

    def __add__(self, other):
        return CsValue.of(self.value + other.value)

    def __neg__(self):
        return CsValue.of(-self.value)

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class CohClass:
    """An element of the degree-4 cohomology of the group, Z/|G| on the
    canonical generator coming from the second Chern class of the inclusion."""

    residue: int
    modulus: int

    def __str__(self):
        return "%d (mod %d)" % (self.residue, self.modulus)


def _vrep(g: GroupId, name: str) -> VirtualRep:
    for q in quaternionic_reps(g):
        if q.name == name:
            return VirtualRep.of_quat(g, q)
    raise BPFloerError("%s has no flat connection %r" % (g, name))


def cs_difference(g: GroupId, a_name: str, b_name: str) -> Fraction:
    """An unreduced representative of cs(a) - cs(b) mod 1: eps(H)/|G|, (2 - Q)H = a - b."""
    h = solve_rep_equation(g, _vrep(g, a_name), _vrep(g, b_name))
    return Fraction(h.epsilon(), g.order)


def chern_simons(g: GroupId, vertex_name: str, orientation: str = STD) -> CsValue:
    """The invariant of one flat connection, for either orientation."""
    if orientation not in (STD, BAR):
        raise BPFloerError("orientation must be 'std' or 'bar'")
    # One solve against theta: summing the edge equations along any path
    # theta -> v telescopes to (2 - Q)(sum H_e) = v - theta; the kernel of
    # (2 - Q) is spanned by the regular representation, with eps = sum d_i^2
    # = |G|, so every integral solution gives the same eps(H)/|G| mod 1.
    cs = cs_difference(g, vertex_name, "theta")
    return CsValue.of(-cs if orientation == BAR else cs)


def cs_table(g: GroupId, orientation: str = STD):
    """All flat connections with their invariants and cohomology classes."""
    out = []
    for q in quaternionic_reps(g):
        cs = chern_simons(g, q.name, orientation)
        out.append((q.name, cs, _c2_of(g, cs if orientation == STD else -cs)))
    return out


def q_vertex(g: GroupId) -> str:
    """The vertex whose representation contains the canonical inclusion."""
    if g.family == "C":
        if g.param == 1:
            return "theta"
        if g.param == 2:
            return "eta"
        return "lambda1"
    if g.family == "D":
        return "alpha1"
    return "alpha"


def c2_class(g: GroupId, vertex_name: str) -> CohClass:
    """Second Chern class of the holonomy representation, as a residue."""
    return _c2_of(g, chern_simons(g, vertex_name, STD))


def _c2_of(g: GroupId, cs: CsValue) -> CohClass:
    """The class c2 = -cs * |G| mod |G| of a flat connection whose
    standard-orientation invariant is cs."""
    k = (-cs.value) * g.order
    if k.denominator != 1:
        raise BPFloerError("cs denominator does not divide the group order")
    return CohClass(int(k) % g.order, g.order)


@dataclass(frozen=True)
class AbelianGroup:
    """Descriptor: free rank plus invariant factors of the torsion part."""

    free_rank: int
    torsion: tuple

    def __str__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % t for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def group_cohomology(g: GroupId, i: int) -> AbelianGroup:
    """Integral group cohomology in degree i >= 0 (4-periodic above 0)."""
    if i < 0:
        raise BPFloerError("degree must be nonnegative")
    if i == 0:
        return AbelianGroup(1, ())
    if i % 2 == 1:
        return AbelianGroup(0, ())
    if i % 4 == 2:
        return AbelianGroup(0, tuple(t for t in g.abelianization() if t > 1))
    return AbelianGroup(0, (g.order,) if g.order > 1 else ())
