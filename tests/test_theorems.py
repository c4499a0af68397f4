"""The product-type closed forms against their hand-entered per-kind tables."""
import pytest

from bpfloer.errors import BPFloerError
from bpfloer.groups import (
    FULLY_REDUCIBLE,
    I_STAR,
    IRREDUCIBLE,
    O_STAR,
    REDUCIBLE,
    T_STAR,
    binary_dihedral,
    cyclic,
)
from bpfloer.mckay import s_graph
from bpfloer.presented import OPLUS8, PI8, PIINF8, Family, PresentedModule
from bpfloer.theorems import negative_std_module, positive_bar_module, tate_module


# Reference: each orbit kind's tower written out by hand, with its U-shift
# (U x^k = x^(k + shift)) entered beside it rather than derived from the step.

def reference_positive_bar(g):
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
        key = {FULLY_REDUCIBLE: "V_", REDUCIBLE: "W_", IRREDUCIBLE: "g_"}[v.kind] + v.name
        corr[(key, 0)] = images
        if v.kind == REDUCIBLE:
            corr[(key, 1)] = []
    return PI8, fams, shifts, corr


def reference_tate(g):
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
    return PIINF8, fams, shifts, {}


def reference_negative_std(g):
    sg = s_graph(g)
    fams, shifts, corr = [], {}, {}
    for v in sg.vertices:
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
            if n:
                prefix = {FULLY_REDUCIBLE: "U_", REDUCIBLE: "Z_", IRREDUCIBLE: "h_"}
                images.append((prefix[sg.vertex(w).kind] + w, 0, n))
        corr[("h_%s" % v.name, 0)] = images
    return OPLUS8, fams, shifts, corr


def reference_u_image(fams, shifts, corr, label, k):
    if (label, k) in corr:
        return list(corr[(label, k)])
    if label not in shifts:
        return []
    (f,) = [f for f in fams if f.label == label]
    k2 = k + shifts[label]
    return [(label, k2, 1)] if f.valid(k2) else []


GROUPS = ([cyclic(k) for k in range(1, 41)] + [binary_dihedral(k) for k in range(2, 41)]
          + [T_STAR, O_STAR, I_STAR])


@pytest.mark.parametrize("build, reference", [
    (positive_bar_module, reference_positive_bar),
    (tate_module, reference_tate),
    (negative_std_module, reference_negative_std),
], ids=["bar+", "inf", "std-"])
def test_orbit_sums_match_the_per_kind_tables(build, reference):
    for g in GROUPS:
        pm = build(g)
        tag, fams, shifts, corr = reference(g)
        # an empty reference entry restates the tower rule, which the
        # u_image check below shows; the module stores only the others
        stored = {key: images for key, images in corr.items() if images}
        assert (pm.flavor_tag, pm.families, pm.corrections) == (tag, fams, stored), str(g)
        for f in fams:
            for k in range(-8, 9):
                want = reference_u_image(fams, shifts, corr, f.label, k)
                assert pm.u_image(f.label, k) == want, (str(g), f.label, k)


def test_u_follows_the_step():
    pm = PresentedModule(PI8, [Family("x", 0, -1, 0), Family("y", 0, 4, 0, 0, 2),
                               Family("c", 3, 0, 0, 0, 0)])
    assert pm.u_image("x", 2) == [("x", 6, 1)]
    assert pm.u_image("y", 2) == [("y", 1, 1)]
    assert pm.u_image("y", 0) == []   # x^-1 is below the floor
    assert pm.u_image("c", 0) == []   # a step-0 class has no U-image of its own
    with pytest.raises(BPFloerError, match="step 3 does not divide"):
        PresentedModule(PI8, [Family("bad", 0, 3, 0)])
