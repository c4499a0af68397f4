"""Encoded closed-form answers for the three flavors and both orientations.

The (bar, -) table is entered family by family from the published
statements.  The (bar, +) and inf tables are product-type: each is the sum
over the flat connections of one orbit's homology (equivariant.orbit_homology)
placed at the connection's level j, plus, for (bar, +), the degree -4
corrections along the labeled edges.  The standard orientation's '-' and '+'
tables are the duals (PresentedModule.dual) of the (bar, +) and (bar, -)
ones, and inf serves both orientations: each closed form has one
implementation.  They serve as the golden side of two comparisons: against
the page-assembled (bar, -) module (floer.GroupRun.assembled), and, for all
six (orientation, flavor) pairs, against the chain-level window homology
(floer.GroupRun.homology_window).  All modules are mod-8 periodic; a generator
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


def _orbit_sum(sg, flavor):
    """The families of orbit_homology(v.kind, flavor) for every vertex v of
    the labeled graph sg, placed at the level v.j and relabelled per vertex."""
    fams = []
    for v in sg.vertices:
        for f in orbit_homology(v.kind, flavor).families:
            fams.append(Family(ORBITS[v.kind].label(flavor, v.name), f.base_degree + v.j,
                               f.step, f.column + v.j, f.floor, f.top))
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
    return PresentedModule(PI8, _orbit_sum(sg, PLUS), corr)


def tate_module(g: GroupId) -> PresentedModule:
    """I^inf: the orbit sum at the levels j, Laurent towers on the non-free
    orbits (both orientations)."""
    return PresentedModule(PIINF8, _orbit_sum(s_graph(g), TATE))


def encoded_module(g: GroupId, orientation, flavor) -> PresentedModule:
    """The closed form of one (orientation, flavor) pair: the standard
    orientation's '-' and '+' tables are the duals of (bar, +) and (bar, -)."""
    if orientation == STD and flavor in (MINUS, PLUS):
        return encoded_module(g, BAR, PLUS if flavor == MINUS else MINUS).dual()
    builders = {MINUS: negative_bar_module, PLUS: positive_bar_module, TATE: tate_module}
    if orientation in (BAR, STD) and flavor in builders:
        return builders[flavor](g)
    raise BPFloerError("no encoded module for %r/%r" % (orientation, flavor))
