"""Acceptance suite: one check per criterion, exact tolerances, timed.

Each test prints a single PASS line with its wall time; the stated runtime
budgets are asserted.  Windows follow the documented defaults: the module
comparisons use GroupRun.comparison_window (half-width 12 + 4*r_last in levels
and degrees, safe interior -7..7), the bar-construction oracle width 24.
"""
import random
import time
from fractions import Fraction

import pytest

from bpfloer.chains import HomologyData, induced_map_between, matrix_rank
from bpfloer.donaldson import BAR, STD, Window, build_model, single_orbit_complex, toi_multicomplex_matches
from bpfloer.equivariant import (
    MINUS,
    PLUS,
    TATE,
    FunctorModel,
    bar_oracle,
    functor_model,
    orbit_homology,
)
from bpfloer.fields import PrimeField, QQ
from bpfloer.floer import (
    GroupRun,
    MinusPages,
    closed_form_reports,
    duality_pairing_report,
    duality_transpose_check,
    norm_vanishing_and_splitting,
    ss_accounting,
)
from bpfloer.groups import (
    FULLY_REDUCIBLE,
    IRREDUCIBLE,
    REDUCIBLE,
    I_STAR,
    O_STAR,
    T_STAR,
    binary_dihedral,
    cyclic,
    quaternionic_reps,
)
from bpfloer.mckay import s_graph_matches_expected
from bpfloer.presented import HomologyWindow, ModuleWindow
from bpfloer.sparse import TrackedEchelon
from bpfloer.theorems import encoded_module

ACCEPT_GROUPS = (
    [cyclic(k) for k in range(2, 13)]
    + [binary_dihedral(k) for k in range(2, 13)]
    + [T_STAR, O_STAR, I_STAR]
)


def _report(num, label, t0, budget):
    elapsed = time.time() - t0
    print("ACCEPTANCE %2d: PASS  %-42s %6.2fs (budget %ds)" % (num, label, elapsed, budget))
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (num, budget)


def test_criterion_1_sgraph_reproduction():
    t0 = time.time()
    for g in ACCEPT_GROUPS:
        ok, msg = s_graph_matches_expected(g)
        assert ok, (str(g), msg)
    _report(1, "labeled graphs, 25 groups, exact", t0, 10)


def test_criterion_2_donaldson_models():
    t0 = time.time()
    for g in (T_STAR, O_STAR, I_STAR):
        ok, msg = toi_multicomplex_matches(g)
        assert ok, (str(g), msg)
    _report(2, "exceptional multicomplex figures", t0, 1)


def test_criterion_3_orbit_homology():
    t0 = time.time()
    for kind in (FULLY_REDUCIBLE, REDUCIBLE, IRREDUCIBLE):
        cx, u = single_orbit_complex(kind, 0, 3)
        for flavor in (PLUS, MINUS, TATE):
            fm = FunctorModel(cx, u, flavor, -20, 20)
            h = fm.homology()
            pm = orbit_homology(kind, flavor)
            mw = ModuleWindow(pm, Window(-1, 1, -20, 20))
            for n in range(-14, 15):
                assert h.dim(n) == mw.dim(n), (kind, flavor, n)
            # the degree -4 action matches the stated rules
            hw = HomologyWindow(h, fm.u)
            for n in range(-10, 11):
                ra, rb = hw.u_power_rank(1, n), mw.u_power_rank(1, n)
                if ra is not None:
                    assert ra == rb, (kind, flavor, n)
    _report(3, "orbit homology closed forms", t0, 1)


def test_criterion_4_bar_oracle():
    t0 = time.time()
    groups = (
        [cyclic(k) for k in range(1, 7)]
        + [binary_dihedral(k) for k in range(2, 7)]
        + [T_STAR, O_STAR, I_STAR]
    )
    win = Window(-13, 11, -12, 12)  # width 24 in levels and degrees
    for g in groups:
        model = build_model(g, BAR)
        w = model.window(Window(win.q, win.p, win.q + 1, win.p + 3))
        for flavor in (PLUS, MINUS):
            bar, fmodel, _ = bar_oracle(w, flavor, win.n_lo, win.n_hi)
            hb, hm = HomologyData(bar.complex), fmodel.homology()
            for n in fmodel.complex.degrees():
                assert hb.dim(n) == hm.dim(n), (str(g), flavor, n)
    _report(4, "literal bar complexes, 14 groups", t0, 60)


def test_criterion_5_spectral_sequences():
    t0 = time.time()
    # binary icosahedral: first differential 1, second 4 (invertible, odd char)
    pages = MinusPages(build_model(I_STAR, BAR))
    assert pages.d_value(1, 0, ("U", "theta")) == {0: Fraction(1)}
    assert pages.d_value(2, 0, ("U", "theta")) == {0: Fraction(4)}
    assert PrimeField(3).of(4) != 0 and PrimeField(5).of(4) != 0
    # binary octahedral: both first differentials are isomorphisms
    pages = MinusPages(build_model(O_STAR, BAR))
    assert pages.d_value(1, 0, ("U", "theta")) == {0: Fraction(1)}
    assert pages.d_value(1, 4, ("U", "eta")) == {0: Fraction(1)}
    assert pages.kernel_space(0, 1) == [] and pages.kernel_space(4, 1) == []
    # binary tetrahedral: the kernel line 3 U^0 - Z^1
    pages = MinusPages(build_model(T_STAR, BAR))
    iu = pages.tower_gens[0].index(("U", "theta"))
    iz = pages.tower_gens[0].index(("Z", "lambda"))
    ker = pages.kernel_space(0, 1)
    assert len(ker) == 1
    e = TrackedEchelon(QQ)
    e.insert(dict(ker[0]))
    assert not e.reduce({iu: Fraction(3), iz: Fraction(-1)})[0]
    # binary dihedral ladders 2^{r-1} and the complete stated stable-page
    # kernels, for every parameter up to 12
    def span_equals(pages, col, r, expected):
        got = pages.kernel_space(col, r)
        e1, e2 = TrackedEchelon(QQ), TrackedEchelon(QQ)
        for v in got:
            e1.insert(dict(v))
        for v in expected:
            e2.insert(dict(v))
        return e1.rank == e2.rank and all(not e1.reduce(dict(v))[0] for v in expected)

    for m in range(2, 13):
        g = binary_dihedral(m)
        pages = MinusPages(build_model(g, BAR))
        half = m // 2  # number of free-orbit vertices
        n4, rres = divmod(m, 4)
        rmax = n4 if rres in (0, 1) else n4 + 1
        for r in range(1, rmax + 1):
            # point-tower ladder out of the trivial side
            val = pages.d_value(r, 0, ("U", "theta"))
            tgt = pages.h_basis[(0 - 4 * r) % 8]
            assert val.get(tgt.index("alpha%d" % r)) == Fraction(2 ** (r - 1)), (m, r)
            # ladder out of the far side (eta towers or the sphere orbit)
            far = ("U", "eta2") if rres in (0, 2) else (
                ("U", "eta") if m == 2 else ("Z", "lambda"))
            far_col = 4 if rres in (0, 1) else 0
            if far in pages.tower_gens[far_col]:
                val = pages.d_value(r, far_col, far)
                tgt = pages.h_basis[(far_col - 4 * r) % 8]
                coeff = 2 ** (r - 1) if far[0] == "U" else 2 ** r
                assert val.get(tgt.index("alpha%d" % (half - r + 1))) == Fraction(coeff), (m, r)
        # complete expected kernel ladders per residue class
        gi = lambda col, kind, name: pages.tower_gens[col].index((kind, name))
        one = Fraction(1)
        if rres == 0:
            d12 = {gi(0, "U", "theta"): one, gi(0, "U", "eta1"): -one}
            d34 = {gi(4, "U", "eta2"): one, gi(4, "U", "eta3"): -one}
            for r in range(1, n4 + 1):
                assert span_equals(pages, 0, r, [d12]), (m, r)
                assert span_equals(pages, 4, r, [d34]), (m, r)
            full0 = [{j: one} for j in range(len(pages.tower_gens[0]))]
            assert span_equals(pages, 0, n4 + 1, full0), m
        elif rres == 1:
            d12 = {gi(0, "U", "theta"): one, gi(0, "U", "eta"): -one}
            for r in range(1, n4 + 1):
                assert span_equals(pages, 0, r, [d12]), (m, r)
                assert span_equals(pages, 4, r, []), (m, r)
            assert span_equals(pages, 4, n4 + 1,
                               [{gi(4, "Z", "lambda"): one}]), m
        elif rres == 2:
            d12 = {gi(0, "U", "theta"): one, gi(0, "U", "eta1"): -one}
            d34 = {gi(0, "U", "eta2"): one, gi(0, "U", "eta3"): -one}
            d13 = {gi(0, "U", "theta"): one, gi(0, "U", "eta2"): -one}
            for r in range(1, n4 + 1):
                assert span_equals(pages, 0, r, [d12, d34]), (m, r)
            assert span_equals(pages, 0, n4 + 1, [d12, d34, d13]), m
        elif rres == 3:
            d12 = {gi(0, "U", "theta"): one, gi(0, "U", "eta"): -one}
            mixed = {gi(0, "U", "theta"): Fraction(2), gi(0, "Z", "lambda"): -one}
            for r in range(1, n4 + 1):
                assert span_equals(pages, 0, r, [d12]), (m, r)
            assert span_equals(pages, 0, n4 + 1, [d12, mixed]), m
    _report(5, "page data at the cited points", t0, 30)


def test_criterion_6_assembled_answers():
    t0 = time.time()
    fields = (QQ, PrimeField(3), PrimeField(5))
    for field in fields:
        for g in ACCEPT_GROUPS:
            # all six pairs by the chain-level route, and (bar, -) assembled
            # from the pages, each on a safe interior of degrees -7..7
            for route, orientation, flavor, rep in closed_form_reports(GroupRun(g, field)):
                assert rep.ok and len(rep.checked_degrees) == 15, (
                    str(g), field.name, route, orientation, flavor, rep.mismatches[:4])
    # the duality theorem, checked structurally for every group
    for g in ACCEPT_GROUPS:
        assert duality_pairing_report(g) == [], str(g)
        wstd = build_model(g, STD).window(Window(-13, 11, -12, 12))
        assert duality_transpose_check(wstd) == [], str(g)
    _report(6, "chain route and pages vs closed forms, 3 fields", t0, 180)


def test_criterion_7_convergence_accounting():
    t0 = time.time()
    rng = random.Random(2026)
    flavors = [PLUS, MINUS, TATE]
    for i in range(50):
        g = rng.choice(ACCEPT_GROUPS)
        orientation = rng.choice([BAR, STD])
        flavor = rng.choice(flavors)
        q = rng.randint(-8, -1)
        p = rng.randint(1, 8)
        lo = rng.randint(-10, -3)
        hi = rng.randint(3, 10)
        ss_accounting(g, orientation, flavor, Window(q, p, lo, hi))
    _report(7, "page totals = direct homology, 50 windows", t0, 60)


def test_criterion_8_triangle_norm():
    t0 = time.time()
    for g in ACCEPT_GROUPS:
        assert norm_vanishing_and_splitting(GroupRun(g)) == list(range(-7, 8)), str(g)
        # the degree -4 action is bijective on interior Tate homology
        model = build_model(g, BAR)
        w = model.window(Window(-13, 11, -12, 14))
        fm = functor_model(w, TATE, -12, 12)
        h = fm.homology()
        for n in range(-3, 5):
            cols = induced_map_between(h, h, fm.u, n)
            r = matrix_rank(cols, QQ)
            assert r == h.dim(n) == h.dim(n - 4), (str(g), n)
    _report(8, "norm zero, splitting, invertible action", t0, 60)


def test_criterion_9_chern_simons():
    t0 = time.time()
    from bpfloer.cs import chern_simons, cs_difference, q_vertex

    for g in ACCEPT_GROUPS + [cyclic(1)]:
        v = chern_simons(g, q_vertex(g))
        want = Fraction(g.order - 1, g.order) if g.order > 1 else Fraction(0)
        assert v.value == want, str(g)
    assert chern_simons(T_STAR, "theta").value == 0
    assert chern_simons(T_STAR, "alpha").value == Fraction(23, 24)
    assert chern_simons(T_STAR, "lambda").value == Fraction(1, 3)
    rng = random.Random(99)
    for _ in range(20):
        g = rng.choice(ACCEPT_GROUPS)
        names = [q.name for q in quaternionic_reps(g)]
        a, b = rng.choice(names), rng.choice(names)
        walk = (chern_simons(g, a).value - chern_simons(g, b).value) % 1
        assert walk == cs_difference(g, a, b) % 1, (str(g), a, b)
    _report(9, "golden values and path independence", t0, 5)


def test_criterion_10_window_truncation_is_essential():
    # the answers are infinite rank per degree: truncated dimensions grow
    # without bound as the filtration window widens, so window-truncated
    # exact comparisons (criteria 6-8) are the desk-scale substitute
    t0 = time.time()
    pm = encoded_module(O_STAR, BAR, "-")
    dims = []
    for half in (8, 16, 24, 32):
        win = Window(-half, half, -8, 8)
        dims.append(ModuleWindow(pm, win).dim(0))
    assert dims == sorted(dims) and dims[-1] > dims[0]
    pm = encoded_module(O_STAR, BAR, "inf")
    dims = [ModuleWindow(pm, Window(-h, h, -8, 8)).dim(0) for h in (8, 16, 24)]
    assert dims[-1] > dims[0]
    _report(10, "unbounded growth under window widening", t0, 5)
