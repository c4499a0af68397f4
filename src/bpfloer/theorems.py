"""Encoded closed-form answers for the three flavors and both orientations.

The (bar, -) table is entered family by family from the published
statements.  The (bar, +), inf and (std, -) tables are product-type: each is
the sum over the flat connections of one orbit's homology
(equivariant.orbit_homology) placed at the connection's level, plus, for
(bar, +) and (std, -), the degree -4 corrections along the labeled edges.
Each table is the only implementation of its closed form.  They serve as
the golden side of two comparisons: against the page-assembled (bar, -)
module (floer.GroupRun.assembled), and, for all six (orientation, flavor)
pairs, against the chain-level window homology (floer.GroupRun.homology_window).
The (std, +) table is the dual of the (bar, -) one, so only the chain
route checks it.  All modules are mod-8 periodic; a generator
is recorded with the degree and filtration column of its shift-0 copy.
"""
from __future__ import annotations

from .donaldson import BAR, STD
from .errors import BPFloerError
from .equivariant import MINUS, PLUS, TATE, orbit_homology
from .groups import CYCLIC, GroupId, IRREDUCIBLE, ORBITS
from .mckay import s_graph
from .presented import OPLUS8, PI8, PIINF8, Family, PresentedModule


def _tower(fams, label, degree, column, step=-4):
    fams.append(Family(label, degree, step, column))


def negative_bar_module(g: GroupId) -> PresentedModule:
    """I^- of the reversed-orientation space, per the published tables."""
    fams = []
    fam = g.family
    if fam == CYCLIC:
        l = g.param
        _tower(fams, "U_theta^0", 0, 0)
        m = l // 2 if l % 2 == 0 else (l - 1) // 2
        top = m - 1 if l % 2 == 0 else m
        for i in range(1, top + 1):
            _tower(fams, "Z_lambda%d" % i, (4 * i + 2) % 8, (4 * i) % 8, step=-2)
        if l % 2 == 0:
            _tower(fams, "U_eta^0", (4 * m) % 8, (4 * m) % 8)
    elif fam == "D":
        n = g.param
        q, rres = divmod(n, 4)
        if rres == 0:
            _tower(fams, "U_theta^0-U_eta1^0", 0, 0)
            _tower(fams, "U_eta2^0-U_eta3^0", 4, 4)
            _tower(fams, "U_theta^%d" % q, -4 * q, 0)
            _tower(fams, "U_eta2^%d" % q, 4 - 4 * q, 4)
        elif rres == 1:
            _tower(fams, "U_theta^0-U_eta^0", 0, 0)
            _tower(fams, "Z_lambda^0", 6, 4)
            _tower(fams, "U_theta^%d" % q, -4 * q, 0)
            _tower(fams, "Z_lambda^%d" % (2 * q + 1), 6 - 2 * (2 * q + 1), 4)
        elif rres == 2:
            _tower(fams, "U_theta^0-U_eta1^0", 0, 0)
            _tower(fams, "U_eta2^0-U_eta3^0", 0, 0)
            _tower(fams, "U_theta^%d-U_eta2^%d" % (q, q), -4 * q, 0)
            _tower(fams, "U_theta^%d" % (q + 1), -4 * (q + 1), 0)
        else:
            _tower(fams, "U_theta^0-U_eta^0", 0, 0)
            _tower(fams, "Z_lambda^0", 2, 0)
            _tower(fams, "2U_theta^%d-Z_lambda^%d" % (q, 2 * q + 1), -4 * q, 0)
            _tower(fams, "U_theta^%d" % (q + 1), -4 * (q + 1), 0)
    elif fam == "T":
        _tower(fams, "U_theta^1", -4, 0)
        _tower(fams, "Z_lambda^0", 2, 0)
        _tower(fams, "3U_theta^0-Z_lambda^1", 0, 0)
    elif fam == "O":
        _tower(fams, "U_theta^1", -4, 0)
        _tower(fams, "U_eta^1", 0, 4)
    else:
        _tower(fams, "U_theta^2", -8, 0)
    return PresentedModule(OPLUS8, fams)


def _orbit_sum(sg, flavor, level):
    """The families of orbit_homology(v.kind, flavor) for every vertex v of
    the labeled graph sg, placed at level(v) and relabelled per vertex."""
    fams = []
    for v in sg.vertices:
        at = level(v)
        for f in orbit_homology(v.kind, flavor).families:
            fams.append(Family(ORBITS[v.kind].label(flavor, v.name), f.base_degree + at,
                               f.step, f.column + at, f.floor, f.top))
    return fams


def positive_bar_module(g: GroupId) -> PresentedModule:
    """I^+ of the reversed-orientation space: the orbit sum at the levels j
    with the degree -4 corrections along the labeled edges.  Only non-empty
    corrections are stored: elsewhere the tower rule already gives U."""
    sg = s_graph(g)
    corr = {}
    for v in sg.vertices:
        images = [
            (ORBITS[IRREDUCIBLE].label(PLUS, w), 0, sg.label(w, v.name))
            for w in sg.neighbors(v.name)
            if sg.vertex(w).kind == IRREDUCIBLE and sg.label(w, v.name)
        ]
        if images:
            corr[(ORBITS[v.kind].label(PLUS, v.name), 0)] = images
    return PresentedModule(PI8, _orbit_sum(sg, PLUS, lambda v: v.j), corr)


def tate_module(g: GroupId) -> PresentedModule:
    """I^inf: the orbit sum at the levels j, Laurent towers on the non-free
    orbits (both orientations)."""
    return PresentedModule(PIINF8, _orbit_sum(s_graph(g), TATE, lambda v: v.j))


def negative_std_module(g: GroupId) -> PresentedModule:
    """I^- of the standard-orientation space: the orbit sum at the levels i,
    towers on non-free orbits and a point class per free orbit whose degree
    -4 image collects every adjacent generator with its edge label (stored
    only when there is one; a class alone has U = 0 by the step-0 rule)."""
    sg = s_graph(g)
    corr = {}
    for v in sg.vertices:
        if v.kind != IRREDUCIBLE:
            continue
        images = []
        for w in sg.neighbors(v.name):
            n = sg.label(v.name, w)
            if not n:
                continue
            images.append((ORBITS[sg.vertex(w).kind].label(MINUS, w), 0, n))
        if images:
            corr[(ORBITS[IRREDUCIBLE].label(MINUS, v.name), 0)] = images
    return PresentedModule(OPLUS8, _orbit_sum(sg, MINUS, lambda v: v.i), corr)


def positive_std_module(g: GroupId) -> PresentedModule:
    """I^+ of the standard-orientation space via the duality with the
    reversed-orientation '-' module (PresentedModule.dual)."""
    return negative_bar_module(g).dual()


def encoded_module(g: GroupId, orientation, flavor) -> PresentedModule:
    if orientation == BAR:
        if flavor == "-":
            return negative_bar_module(g)
        if flavor == "+":
            return positive_bar_module(g)
        if flavor == "inf":
            return tate_module(g)
    if orientation == STD:
        if flavor == "-":
            return negative_std_module(g)
        if flavor == "+":
            return positive_std_module(g)
        if flavor == "inf":
            return tate_module(g)
    raise BPFloerError("no encoded module for %r/%r" % (orientation, flavor))
