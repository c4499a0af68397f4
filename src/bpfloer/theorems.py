"""Encoded closed-form answers for the three flavors and both orientations.

These tables are entered directly from the published statements, family by
family, and are the only implementation of each closed form.  They serve as
the golden side of two comparisons: against the page-assembled (bar, -)
module (floer.assemble), and, for all six (orientation, flavor) pairs,
against the chain-level window homology (floer.direct_homology_window).
The (std, +) table is the dual of the (bar, -) one, so only the chain
route checks it.  All modules are mod-8 periodic; a generator
is recorded with the degree and filtration column of its shift-0 copy.
"""
from __future__ import annotations

from .donaldson import BAR, STD
from .errors import BPFloerError
from .groups import CYCLIC, FULLY_REDUCIBLE, GroupId, IRREDUCIBLE, ORBITS, REDUCIBLE
from .mckay import s_graph
from .presented import OPLUS8, PI8, PIINF8, Family, PresentedModule


def _tower(fams, shifts, label, degree, column, step=-4):
    fams.append(Family(label, degree, step, column))
    shifts[label] = 1 if step == -4 else 2


def negative_bar_module(g: GroupId) -> PresentedModule:
    """I^- of the reversed-orientation space, per the published tables."""
    fams, shifts = [], {}
    fam = g.family
    if fam == CYCLIC:
        l = g.param
        _tower(fams, shifts, "U_theta^0", 0, 0)
        m = l // 2 if l % 2 == 0 else (l - 1) // 2
        top = m - 1 if l % 2 == 0 else m
        for i in range(1, top + 1):
            _tower(fams, shifts, "Z_lambda%d" % i, (4 * i + 2) % 8, (4 * i) % 8, step=-2)
        if l % 2 == 0:
            _tower(fams, shifts, "U_eta^0", (4 * m) % 8, (4 * m) % 8)
    elif fam == "D":
        n = g.param
        q, rres = divmod(n, 4)
        if rres == 0:
            _tower(fams, shifts, "U_theta^0-U_eta1^0", 0, 0)
            _tower(fams, shifts, "U_eta2^0-U_eta3^0", 4, 4)
            _tower(fams, shifts, "U_theta^%d" % q, -4 * q, 0)
            _tower(fams, shifts, "U_eta2^%d" % q, 4 - 4 * q, 4)
        elif rres == 1:
            _tower(fams, shifts, "U_theta^0-U_eta^0", 0, 0)
            _tower(fams, shifts, "Z_lambda^0", 6, 4)
            _tower(fams, shifts, "U_theta^%d" % q, -4 * q, 0)
            _tower(fams, shifts, "Z_lambda^%d" % (2 * q + 1), 6 - 2 * (2 * q + 1), 4)
        elif rres == 2:
            _tower(fams, shifts, "U_theta^0-U_eta1^0", 0, 0)
            _tower(fams, shifts, "U_eta2^0-U_eta3^0", 0, 0)
            _tower(fams, shifts, "U_theta^%d-U_eta2^%d" % (q, q), -4 * q, 0)
            _tower(fams, shifts, "U_theta^%d" % (q + 1), -4 * (q + 1), 0)
        else:
            _tower(fams, shifts, "U_theta^0-U_eta^0", 0, 0)
            _tower(fams, shifts, "Z_lambda^0", 2, 0)
            _tower(fams, shifts, "2U_theta^%d-Z_lambda^%d" % (q, 2 * q + 1), -4 * q, 0)
            _tower(fams, shifts, "U_theta^%d" % (q + 1), -4 * (q + 1), 0)
    elif fam == "T":
        _tower(fams, shifts, "U_theta^1", -4, 0)
        _tower(fams, shifts, "Z_lambda^0", 2, 0)
        _tower(fams, shifts, "3U_theta^0-Z_lambda^1", 0, 0)
    elif fam == "O":
        _tower(fams, shifts, "U_theta^1", -4, 0)
        _tower(fams, shifts, "U_eta^1", 0, 4)
    else:
        _tower(fams, shifts, "U_theta^2", -8, 0)
    return PresentedModule(OPLUS8, fams, shifts, {})


def positive_bar_module(g: GroupId) -> PresentedModule:
    """I^+ of the reversed-orientation space: product-type module on orbit
    generators with the degree -4 corrections along the labeled edges."""
    sg = s_graph(g)
    fams, shifts, corr = [], {}, {}
    for v in sg.vertices:
        if v.kind == FULLY_REDUCIBLE:
            lab = "V_%s" % v.name
            fams.append(Family(lab, v.j, 4, v.j))
            shifts[lab] = -1
        elif v.kind == REDUCIBLE:
            lab = "W_%s" % v.name
            fams.append(Family(lab, v.j, 2, v.j))
            shifts[lab] = -2
        else:
            fams.append(Family("g_%s" % v.name, v.j, 0, v.j, 0, 0))
    for v in sg.vertices:
        images = [
            ("g_%s" % w, 0, sg.label(w, v.name))
            for w in sg.neighbors(v.name)
            if sg.vertex(w).kind == IRREDUCIBLE and sg.label(w, v.name)
        ]
        key = ORBITS[v.kind].label("+", v.name)
        corr[(key, 0)] = images
        if v.kind == REDUCIBLE:
            corr[(key, 1)] = []
    return PresentedModule(PI8, fams, shifts, corr)


def tate_module(g: GroupId) -> PresentedModule:
    """I^inf: Laurent towers on the non-free orbits (both orientations)."""
    sg = s_graph(g)
    fams, shifts = [], {}
    for v in sg.vertices:
        if v.kind == FULLY_REDUCIBLE:
            lab = "T_%s" % v.name
            fams.append(Family(lab, v.j, -4, v.j, None))
            shifts[lab] = 1
        elif v.kind == REDUCIBLE:
            lab = "S_%s" % v.name
            fams.append(Family(lab, v.j, -2, v.j, None))
            shifts[lab] = 2
    return PresentedModule(PIINF8, fams, shifts, {})


def negative_std_module(g: GroupId) -> PresentedModule:
    """I^- of the standard-orientation space: towers on non-free orbits and a
    point class per free orbit whose degree -4 image collects every adjacent
    generator with its edge label."""
    sg = s_graph(g)
    fams, shifts, corr = [], {}, {}
    for v in sg.vertices:
        # degrees anchored to the standard-orientation column: the tower top
        # sits offset 0 / 2 / 3 above the level, matching j only modulo 8
        if v.kind == FULLY_REDUCIBLE:
            lab = "U_%s" % v.name
            fams.append(Family(lab, v.i, -4, v.i))
            shifts[lab] = 1
        elif v.kind == REDUCIBLE:
            lab = "Z_%s" % v.name
            fams.append(Family(lab, v.i + 2, -2, v.i))
            shifts[lab] = 2
        else:
            fams.append(Family("h_%s" % v.name, v.i + 3, 0, v.i, 0, 0))
    for v in sg.vertices:
        if v.kind != IRREDUCIBLE:
            continue
        images = []
        for w in sg.neighbors(v.name):
            n = sg.label(v.name, w)
            if not n:
                continue
            images.append((ORBITS[sg.vertex(w).kind].label("-", w), 0, n))
        corr[("h_%s" % v.name, 0)] = images
    return PresentedModule(OPLUS8, fams, shifts, corr)


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
