"""Model multicomplexes, windows, the psi endomorphism, duality."""
import random

import pytest

from bpfloer.chains import HomologyData
from bpfloer.donaldson import (
    BAR,
    STD,
    Gen,
    Window,
    build_model,
    toi_multicomplex_matches,
)
from bpfloer.errors import BPFloerError
from bpfloer.floer import MinusPages, duality_transpose_check
from bpfloer.groups import IRREDUCIBLE, I_STAR, O_STAR, T_STAR, binary_dihedral, cyclic

from oracles import check_dd_zero, single_orbit_complex

SOME_GROUPS = [T_STAR, O_STAR, I_STAR, cyclic(1), cyclic(6), cyclic(9),
               binary_dihedral(2), binary_dihedral(5), binary_dihedral(8)]


@pytest.mark.parametrize("g", [T_STAR, O_STAR, I_STAR], ids=str)
def test_toi_figures(g):
    ok, msg = toi_multicomplex_matches(g)
    assert ok, msg


def test_toi_figure_check_reads_the_window_levels(monkeypatch):
    # the golden check counts the generators the production unrolling makes
    real = Window.levels
    monkeypatch.setattr(Window, "levels", lambda self, base: [l for l in real(self, base) if l != 8])
    ok, msg = toi_multicomplex_matches(T_STAR)
    assert not ok and "bidegree ranks differ" in msg


def test_window_levels_unroll_one_residue():
    win = Window(-9, 15)
    for base in range(-20, 20):
        want = [l for l in range(-8, 16) if (l - base) % 8 == 0]
        assert list(win.levels(base)) == want


def test_toi_arrow_values():
    model = build_model(I_STAR, BAR)
    d = model.differential(Gen("alpha", 0, 4))
    assert d == {Gen("beta", 3, 0): 4}
    d = model.differential(Gen("theta", 0, 8))
    assert d == {Gen("alpha", 3, 4): 1}
    d = model.differential(Gen("beta", 0, 8))
    assert d == {Gen("alpha", 3, 4): 3}
    # arrows into non-free orbits vanish for the reversed orientation
    model_t = build_model(T_STAR, BAR)
    assert model_t.differential(Gen("alpha", 0, 4)) == {}


@pytest.mark.parametrize("g", SOME_GROUPS, ids=str)
@pytest.mark.parametrize("orientation", [BAR, STD])
def test_window_dd_zero_and_u(g, orientation):
    model = build_model(g, orientation)
    w = model.window(Window(-9, 15, -10, 16))
    check_dd_zero(w.complex)
    assert w.u.is_chain_map(sign=1)
    for gen in w.generators:
        # u-squared is zero and u preserves the filtration level
        img = model.u_action(gen)
        for tgt in img:
            assert tgt.level == gen.level
            assert model.u_action(tgt) == {}


def test_window_periodicity():
    for g in (T_STAR, binary_dihedral(5)):
        model = build_model(g, BAR)
        w1 = model.window(Window(-9, 15, -8, 14))
        w2 = model.window(Window(-1, 23, 0, 22))
        d1 = {n: w1.complex.dim(n) for n in w1.complex.degrees()}
        d2 = {n - 8: w2.complex.dim(n) for n in w2.complex.degrees()}
        assert d1 == d2


def test_empty_window():
    model = build_model(T_STAR, BAR)
    w = model.window(Window(0, 1, 0, 0))  # level 1 carries nothing
    assert w.complex.total_dim() == 0


def test_degenerate_trivial_group():
    model = build_model(cyclic(1), BAR)
    w = model.window(Window(-9, 15, -8, 16))
    assert all(g.vertex == "theta" for g in w.generators)
    for gen in w.generators:
        assert model.differential(gen) == {}


def test_psi_properties():
    # the page engine's psi (MinusPages.psi, its walk matrix) against the
    # model on one window: psi(x) . u = dx for every b-generator x, with
    # psi(x) supported on free-orbit point classes one column down
    for g in (T_STAR, O_STAR, I_STAR, binary_dihedral(6)):
        model = build_model(g, BAR)
        psi = MinusPages(model).psi
        w = model.window(Window(-9, 15, -12, 18))
        hits = 0
        for gen in w.generators:
            if gen.t != 0:
                continue
            img = {Gen(tgt, 0, gen.level - 4): row[gen.vertex]
                   for tgt, row in psi.items() if gen.vertex in row}
            assert all(model.sgraph.vertex(x.vertex).kind == IRREDUCIBLE for x in img)
            left = {}
            for x, c in img.items():
                for y, c2 in model.u_action(x).items():
                    left[y] = left.get(y, 0) + c * c2
            assert left == model.differential(gen), (str(g), gen)
            hits += bool(img)
        assert hits, str(g)


def test_sign_flip_invariance():
    # negating one edge label leaves all window homology dimensions unchanged
    g = O_STAR
    model = build_model(g, BAR)
    win = Window(-9, 15, -10, 14)
    w = model.window(win)
    base = HomologyData(w.complex).dims()
    flipped = model.window(win)
    # rebuild the boundary with one label negated
    for gen in flipped.generators:
        img = model.differential(gen)
        img2 = {t: (-c if (gen.vertex, t.vertex) == ("beta", "alpha") else c)
                for t, c in img.items()}
        flipped.complex.set_boundary(gen.degree, gen, img2)
    check_dd_zero(flipped.complex)
    assert HomologyData(flipped.complex).dims() == base


@pytest.mark.parametrize("g", SOME_GROUPS, ids=str)
def test_duality_transpose(g):
    assert duality_transpose_check(build_model(g, STD).window(Window(-13, 11, -12, 12))) == []


def test_bar_vs_std_generator_counts():
    # same generators after regrading; counts per vertex agree
    for g in (I_STAR, T_STAR, binary_dihedral(7)):
        bar = build_model(g, BAR)
        std = build_model(g, STD)
        win = Window(-25, 23, -30, 30)
        wb, ws = bar.window(win), std.window(win)
        count = lambda w: {v.name: sum(1 for x in w.generators if x.vertex == v.name)
                           for v in bar.sgraph.vertices}
        cb, cs_ = count(wb), count(ws)
        for name in cb:
            assert abs(cb[name] - cs_[name]) <= 1  # off by at most a boundary copy


def test_single_orbit_complexes():
    for kind, degrees in (("irreducible", {0, 3}), ("reducible", {0, 2}),
                          ("fully-reducible", {0})):
        cx, u = single_orbit_complex(kind, -2, 5)
        assert {n for n in cx.degrees() if cx.dim(n)} == degrees
        check_dd_zero(cx)


def test_window_validation():
    with pytest.raises(BPFloerError):
        Window(3, 3, 0, 1)
    with pytest.raises(BPFloerError):
        Window(0, 1, 5, 4)


def test_window_census_example():
    # levels (-1, 7], degrees [0, 7] for the tetrahedral model: five
    # generators, dd = 0, and the count formula per vertex
    model = build_model(T_STAR, BAR)
    w = model.window(Window(-1, 7, 0, 7))
    check_dd_zero(w.complex)
    assert {n: w.complex.dim(n) for n in w.complex.degrees()} == {0: 2, 2: 1, 4: 1, 7: 1}
    per_vertex = {}
    for gen in w.generators:
        per_vertex[gen.vertex] = per_vertex.get(gen.vertex, 0) + 1
    assert per_vertex == {"theta": 1, "lambda": 2, "alpha": 2}
