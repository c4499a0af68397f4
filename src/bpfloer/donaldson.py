"""The mod-8-periodic multicomplexes on flat connections and their windows.

Generators are named (vertex, t, level): b-generators at t = 0 for every
vertex, t-generators at t = 3 (free orbits) or t = 2 (two-sphere orbits).
For the reversed orientation the only differential raises t by 3 and drops
the level by 4; for the standard orientation there are three components.
Windows materialize a finite filtration/degree rectangle as a FiniteComplex
together with the degree +3 action of the exterior generator.
"""
from __future__ import annotations

from dataclasses import dataclass

from .chains import ChainMap, FiniteComplex
from .errors import BPFloerError
from .fields import QQ
from .groups import IRREDUCIBLE, ORBITS, GroupId
from .mckay import SGraph, s_graph

BAR = "bar"   # reversed orientation
STD = "std"   # standard orientation


@dataclass(frozen=True)
class Window:
    """Filtration levels (q, p] and total degrees [n_lo, n_hi]."""

    q: int = -24
    p: int = 24
    n_lo: int = -24
    n_hi: int = 24

    def __post_init__(self):
        if self.q >= self.p or self.n_lo > self.n_hi:
            raise BPFloerError("empty or inverted window %r" % (self,))

    def shifted(self, k):
        return Window(self.q + k, self.p + k, self.n_lo + k, self.n_hi + k)

    def levels(self, base):
        """The levels congruent to base mod 8 in (q, p]: the one place the
        periodic data is unrolled."""
        return range(self.q + 1 + (base - self.q - 1) % 8, self.p + 1, 8)

    @property
    def source(self):
        """The same levels with their full degree span (level l: degrees l..l+3)."""
        return Window(self.q, self.p, self.q + 1, self.p + 3)

    def interior(self, degree_margin, level_margin):
        """Safe degrees: > degree_margin inside [n_lo, n_hi], > level_margin inside (q, p]."""
        lo = max(self.n_lo + degree_margin, self.q + level_margin) + 1
        hi = min(self.n_hi - degree_margin, self.p - level_margin) - 1
        return range(lo, hi + 1)


@dataclass(frozen=True)
class Gen:
    vertex: str
    t: int
    level: int

    @property
    def degree(self):
        return self.level + self.t

    def __repr__(self):
        return "%s[t=%d,l=%d]" % (self.vertex, self.t, self.level)


class DonaldsonModel:
    """Periodic model for one group and one orientation."""

    def __init__(self, group: GroupId, orientation: str):
        if orientation not in (BAR, STD):
            raise BPFloerError("orientation must be 'bar' or 'std'")
        self.group = group
        self.orientation = orientation
        self.sgraph: SGraph = s_graph(group)

    def base_level(self, vertex_name):
        v = self.sgraph.vertex(vertex_name)
        return v.j if self.orientation == BAR else v.i

    def generator_slots(self, vertex_name):
        """The internal degrees t of the generators at one vertex."""
        return ORBITS[self.sgraph.vertex(vertex_name).kind].slots

    def differential(self, gen: Gen):
        """Image of a generator as {Gen: integer coefficient}."""
        sg = self.sgraph
        out = {}
        if gen.t != 0:
            return out
        src = gen.vertex
        if self.orientation == BAR:
            # the only component raises t to 3 on adjacent free orbits
            for tgt in sg.neighbors(src):
                if sg.vertex(tgt).kind != IRREDUCIBLE:
                    continue
                n = sg.label(tgt, src)
                if n:
                    out[Gen(tgt, 3, gen.level - 4)] = n
        else:
            if sg.vertex(src).kind != IRREDUCIBLE:
                return out
            # into the top t = delta of each adjacent orbit, one degree down
            for tgt in sg.neighbors(src):
                n = sg.label(src, tgt)
                if n:
                    delta = ORBITS[sg.vertex(tgt).kind].delta
                    out[Gen(tgt, delta, gen.level - 1 - delta)] = n
        return out

    def u_action(self, gen: Gen):
        """b -> t on free orbits; zero otherwise.  Degree +3, level preserved."""
        if gen.t == 0 and self.sgraph.vertex(gen.vertex).kind == IRREDUCIBLE:
            return {Gen(gen.vertex, 3, gen.level): 1}
        return {}

    def window(self, win: Window, field=QQ) -> "WindowedComplex":
        return WindowedComplex(self, win, field)


def build_model(group: GroupId, orientation: str) -> DonaldsonModel:
    return DonaldsonModel(group, orientation)


class WindowedComplex:
    """A finite window F_p/F_q of the model, restricted to a degree range."""

    def __init__(self, model: DonaldsonModel, win: Window, field=QQ):
        self.model = model
        self.win = win
        self.field = field
        cx = FiniteComplex(field)
        gens = []
        for v in model.sgraph.vertices:
            for level in win.levels(model.base_level(v.name)):
                for t in model.generator_slots(v.name):
                    if win.n_lo <= level + t <= win.n_hi:
                        gens.append(Gen(v.name, t, level))
        gens.sort(key=lambda g: (g.degree, g.level, g.vertex, g.t))
        for g in gens:
            cx.add_generator(g.degree, g, level=g.level)
        for g in gens:
            img = model.differential(g)
            cx.set_boundary(g.degree, g, img)
        self.complex = cx
        u = ChainMap(cx, cx, 3)
        for g in gens:
            u.set_image(g.degree, g, model.u_action(g))
        self.u = u

    @property
    def generators(self):
        return [g for n in self.complex.degrees() for g in self.complex.basis[n]]

    def bidegree_ranks(self):
        """The number of generators at each (level, t)."""
        out = {}
        for g in self.generators:
            out[g.level, g.t] = out.get((g.level, g.t), 0) + 1
        return out

    def differential(self, gen: Gen):
        """The stored boundary of a generator as {Gen: value} over the field."""
        cx = self.complex
        col = cx.boundary[gen.degree][cx.index[gen.degree][gen]]
        return {cx.basis[gen.degree - 1][pos]: c for pos, c in col.items()}

    def is_empty(self):
        return self.complex.total_dim() == 0


def single_orbit_complex(kind, n_lo, n_hi, field=QQ):
    """One critical orbit placed at level 0: the building block used by the
    closed-form orbit homology checks.  Returns (FiniteComplex, u ChainMap)."""
    cx = FiniteComplex(field)
    gens = []
    for t in ORBITS[kind].slots:
        if n_lo <= t <= n_hi:
            gens.append(Gen("pt", t, 0))
    for g in gens:
        cx.add_generator(g.degree, g, level=0)
    for g in gens:
        cx.set_boundary(g.degree, g, {})
    u = ChainMap(cx, cx, 3)
    for g in gens:
        img = {}
        if kind == IRREDUCIBLE and g.t == 0 and any(x.t == 3 for x in gens):
            img = {Gen("pt", 3, 0): 1}
        u.set_image(g.degree, g, img)
    return cx, u


def expected_toi_multicomplex(group: GroupId):
    """Bidegree ranks and arrow coefficient sets for the three exceptional
    groups over one period (levels 0..8), used as golden verification data."""
    name = str(group)
    if name == "T*":
        ranks = {(0, 0): 2, (0, 2): 1, (4, 0): 1, (4, 3): 1, (8, 0): 2, (8, 2): 1}
        arrows = {(8, 4): [1, 3], (4, 0): []}
    elif name == "O*":
        ranks = {(0, 0): 2, (0, 3): 1, (4, 0): 2, (4, 3): 1, (8, 0): 2, (8, 3): 1}
        arrows = {(8, 4): [1, 3], (4, 0): [1, 3]}
    elif name == "I*":
        ranks = {(0, 0): 2, (0, 3): 1, (4, 0): 1, (4, 3): 1, (8, 0): 2, (8, 3): 1}
        arrows = {(8, 4): [1, 3], (4, 0): [4]}
    else:
        raise BPFloerError("golden multicomplex data only covers T*, O*, I*")
    return ranks, arrows


def toi_multicomplex_matches(group: GroupId):
    """Compare one period of the bar model, the window on levels 0..8,
    against the golden figure data."""
    w = build_model(group, BAR).window(Window(-1, 8).source)
    ranks, arrows = expected_toi_multicomplex(group)
    got = w.bidegree_ranks()
    if got != ranks:
        return False, "bidegree ranks differ: %r" % (got,)
    for (s_src, s_tgt), coeffs in arrows.items():
        vals = []
        for g in w.generators:
            if g.t == 0 and g.level == s_src:
                vals.extend(c for tgt, c in w.differential(g).items() if tgt.level == s_tgt)
        if sorted(vals) != sorted(coeffs):
            return False, "arrow %r -> %r carries %r, wanted %r" % (s_src, s_tgt, vals, coeffs)
    return True, "ok"
