"""Spectral sequence pages, assembly, closed-form comparisons."""
import random

import pytest
from fractions import Fraction

from bpfloer.chains import FilteredPages
from bpfloer.donaldson import BAR, STD, Window, build_model
from bpfloer.equivariant import MINUS, PLUS, TATE, functor_model
from bpfloer.errors import BPFloerError, FreenessFailure, WrongFlavor
from bpfloer.fields import PrimeField, QQ
import bpfloer.floer as floer
import bpfloer.mckay as mk
from bpfloer.floer import (
    PAIRS,
    GroupRun,
    MinusPages,
    closed_form_reports,
    direct_homology_window,
    duality_pairing_report,
    e1_entries,
    norm_vanishing_and_splitting,
    run_to_einfty,
    ss_accounting,
)
from bpfloer.groups import I_STAR, O_STAR, T_STAR, binary_dihedral, cyclic, parse_group
from bpfloer.presented import BarWindow, HomologyWindow, ModuleWindow, PresentedModule, compare_windows
from bpfloer.sparse import TrackedEchelon, _apply_columns
from bpfloer.theorems import encoded_module, negative_bar_module, positive_std_module


def kernel_spans_equal(pages, col, r, expected_vectors):
    """Compare the computed kernel space with an expected span (over Q)."""
    from bpfloer.sparse import TrackedEchelon

    got = pages.kernel_space(col, r)
    e1 = TrackedEchelon(QQ)
    for v in got:
        e1.insert(dict(v))
    e2 = TrackedEchelon(QQ)
    for v in expected_vectors:
        e2.insert(dict(v))
    if e1.rank != e2.rank:
        return False
    return all(not e1.reduce(dict(v))[0] for v in expected_vectors)


def gen_index(pages, col, kind, name):
    return pages.tower_gens[col].index((kind, name))


def test_e1_entries_icosahedral():
    model = build_model(I_STAR, BAR)
    entries = e1_entries(model, MINUS)
    assert entries[(0, 0)] == [("U", "theta")]
    assert entries[(0, 3)] == [("h", "beta")]
    assert entries[(4, 3)] == [("h", "alpha")]
    plus = e1_entries(model, PLUS)
    assert plus[(0, 0)] == [("V", "theta"), ("g", "beta")]
    tate = e1_entries(model, TATE)
    assert (0, 3) not in tate and (4, 0) not in tate  # free orbits contribute nothing


def test_icosahedral_differentials():
    pages = MinusPages(build_model(I_STAR, BAR))
    assert pages.d_value(1, 0, ("U", "theta")) == {0: Fraction(1)}
    assert pages.d_value(2, 0, ("U", "theta")) == {0: Fraction(4)}
    assert pages.degeneration_page == 9
    assert pages.surviving_h(0) == 0 and pages.surviving_h(4) == 0


def test_tetrahedral_differentials_and_kernel():
    pages = MinusPages(build_model(T_STAR, BAR))
    assert pages.d_value(1, 0, ("U", "theta")) == {0: Fraction(1)}
    assert pages.d_value(1, 0, ("Z", "lambda")) == {0: Fraction(3)}
    iu = gen_index(pages, 0, "U", "theta")
    iz = gen_index(pages, 0, "Z", "lambda")
    assert kernel_spans_equal(pages, 0, 1, [{iu: Fraction(3), iz: Fraction(-1)}])


def test_octahedral_isos_and_page():
    pages = MinusPages(build_model(O_STAR, BAR))
    assert pages.d_value(1, 0, ("U", "theta")) == {0: Fraction(1)}
    assert pages.d_value(1, 4, ("U", "eta")) == {0: Fraction(1)}
    assert pages.kernel_space(0, 1) == [] and pages.kernel_space(4, 1) == []
    assert pages.degeneration_page == 5


@pytest.mark.parametrize("l", range(2, 13))
def test_cyclic_degenerates_immediately(l):
    pages, page = run_to_einfty(GroupRun(cyclic(l)), BAR, MINUS)
    assert page == 1


def test_dihedral_ladder():
    # the page-r differential carries the power-of-two ladder coefficient
    for m in (8, 12):  # m = 4n
        n = m // 4
        pages = MinusPages(build_model(binary_dihedral(m), BAR))
        for r in range(1, n + 1):
            val = pages.d_value(r, 0, ("U", "theta"))
            red, _ = pages.b_echelon[(0 - 4 * r) % 8].reduce(dict(val))
            # the reduced value is 2^{r-1} h_r modulo earlier boundaries: its
            # coefficient on h_r survives exactly when r is the page index
            h_names = pages.h_basis[(0 - 4 * r) % 8]
            assert val.get(h_names.index("alpha%d" % r)) == Fraction(2 ** (r - 1))


def test_dihedral_einfty_kernels():
    # m = 4n: difference towers at every level, then the extra mixed kernel
    m, n = 8, 2
    pages = MinusPages(build_model(binary_dihedral(m), BAR))
    i1 = gen_index(pages, 0, "U", "theta")
    i2 = gen_index(pages, 0, "U", "eta1")
    i3 = gen_index(pages, 4, "U", "eta2")
    i4 = gen_index(pages, 4, "U", "eta3")
    for r in range(1, n + 1):
        assert kernel_spans_equal(pages, 0, r, [{i1: 1, i2: -1}])
        assert kernel_spans_equal(pages, 4, r, [{i3: 1, i4: -1}])
    # m = 4n+2: the level -4n kernel picks up the cross-difference
    m, n = 10, 2
    pages = MinusPages(build_model(binary_dihedral(m), BAR))
    idx = {name: gen_index(pages, 0, "U", name) for name in ("theta", "eta1", "eta2", "eta3")}
    for r in range(1, n + 1):
        assert kernel_spans_equal(
            pages, 0, r,
            [{idx["theta"]: 1, idx["eta1"]: -1}, {idx["eta2"]: 1, idx["eta3"]: -1}])
    assert kernel_spans_equal(
        pages, 0, n + 1,
        [{idx["theta"]: 1, idx["eta1"]: -1}, {idx["eta2"]: 1, idx["eta3"]: -1},
         {idx["theta"]: 1, idx["eta2"]: -1}])
    # m = 4n+3: the mixed kernel couples the point tower with the sphere tower
    m, n = 11, 2
    pages = MinusPages(build_model(binary_dihedral(m), BAR))
    it = gen_index(pages, 0, "U", "theta")
    ie = gen_index(pages, 0, "U", "eta")
    iz = gen_index(pages, 0, "Z", "lambda")
    assert kernel_spans_equal(
        pages, 0, n + 1, [{it: 1, ie: -1}, {it: 2, iz: -1}])


def test_assembled_generators_match_tables():
    cases = {
        "I*": {("U_theta^2", -8, 0)},
        "O*": {("U_theta^1", -4, 0), ("U_eta^1", 0, 4)},
        "T*": {("Z_lambda^0", 2, 0), ("U_theta^1", -4, 0), ("-3*U_theta^0+Z_lambda^1", 0, 0)},
    }
    for name, want in cases.items():
        asm = GroupRun(parse_group(name)).assembled(BAR, MINUS)
        got = {(f.label, f.base_degree, f.column) for f in asm.families}
        assert got == want, (name, got)


def test_octahedral_plus_u_rule():
    pm = encoded_module(O_STAR, BAR, "+")
    assert pm.u_image("g_alpha", 0) == [("g_beta", 0, 3)]
    assert pm.u_image("V_theta", 0) == [("g_alpha", 0, 1)]
    assert pm.u_image("V_theta", 2) == [("V_theta", 1, 1)]
    assert pm.u_image("V_eta", 0) == [("g_beta", 0, 1)]


ALL_GROUPS = (
    [cyclic(k) for k in range(2, 13)]
    + [binary_dihedral(k) for k in range(2, 13)]
    + [T_STAR, O_STAR, I_STAR]
)


def assert_closed_forms_hold(g, field):
    reports = closed_form_reports(GroupRun(g, field))
    assert [(o, f) for route, o, f, _ in reports if route == "chain"] == list(PAIRS)
    assert [(o, f) for route, o, f, _ in reports if route == "pages"] == [(BAR, MINUS)]
    for route, orientation, flavor, rep in reports:
        # ok also requires a non-empty interior; the window keeps it at -7..7
        assert rep.ok and len(rep.checked_degrees) == 15, (
            str(g), field.name, route, orientation, flavor, rep.mismatches[:4])


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_assembled_vs_encoded_rationals(g):
    assert_closed_forms_hold(g, QQ)


@pytest.mark.parametrize("g", [T_STAR, I_STAR, binary_dihedral(6), binary_dihedral(7), cyclic(5)], ids=str)
def test_assembled_vs_encoded_prime_fields(g):
    for p in (3, 5):
        assert_closed_forms_hold(g, PrimeField(p))


@pytest.mark.parametrize(
    "g", [T_STAR, O_STAR, I_STAR, cyclic(4), binary_dihedral(5), cyclic(3), cyclic(5)], ids=str)
def test_direct_homology_vs_encoded(g):
    # the chain-level route on its own, outside closed_form_reports; this is
    # offset 0 of the residue sweep below
    win, margin = GroupRun(g).comparison_window()
    for orientation, flavor in PAIRS:
        hw = direct_homology_window(g, orientation, flavor, win)
        enc = ModuleWindow(encoded_module(g, orientation, flavor), win)
        rep = compare_windows(hw, enc, win, 4, margin, 3)
        assert rep.ok and rep.checked_degrees == list(range(-7, 8)), (
            str(g), orientation, flavor, rep.mismatches[:4])


def residue_cases():
    # D*_3 and D*_7 carry the mixed point/two-sphere family
    # 2U_theta^q-Z_lambda^(2q+1); over F_3 the U part of T*'s
    # 3U_theta^0-Z_lambda^1 vanishes
    for p in (None, 3):
        for name in ("C_3", "T*", "O*", "C_5", "D*_5", "D*_3", "D*_7"):
            for c in range(1, 8):
                for orientation, flavor in PAIRS:
                    ident = "%s-c%d-%s-%s" % (name, c, orientation, flavor)
                    yield pytest.param(name, c, orientation, flavor, p,
                                       id=ident if p is None else "%s-F%d" % (ident, p))


@pytest.mark.parametrize("name, offset, orientation, flavor, p", residue_cases())
def test_chain_route_at_every_residue(name, offset, orientation, flavor, p):
    # the lower cut of the comparison window shifted by c runs through all 8
    # residues mod 8 as c does; the unshifted gates see only c = 0
    g = parse_group(name)
    field = QQ if p is None else PrimeField(p)
    win, margin = GroupRun(g, field).comparison_window()
    win = win.shifted(offset)
    hw = direct_homology_window(g, orientation, flavor, win, field)
    enc = ModuleWindow(encoded_module(g, orientation, flavor), win, field)
    rep = compare_windows(hw, enc, win, 4, margin)
    assert rep.checked_degrees == list(range(-7 + offset, 8 + offset))
    assert rep.ok, rep.mismatches[:4]


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_positive_std_is_the_shifted_dual(g):
    # each (std, +) family negates its (bar, -) family's degree and step and
    # sits at column -c - delta: delta = 2 when the family has a two-sphere
    # (Z) component, else 0 (the (bar, -) tables name no free orbit)
    minus, plus = negative_bar_module(g), positive_std_module(g)
    assert [f.label for f in plus.families] == [f.label for f in minus.families]
    for fm in minus.families:
        fp = plus.family(fm.label)
        delta = 2 if "Z_" in fm.label else 0
        assert (fp.base_degree, fp.step, fp.column) == (
            -fm.base_degree, -fm.step, -fm.column - delta), (str(g), fm.label)


def test_compare_needs_a_full_period():
    # I* against itself agrees everywhere, but 7 interior degrees are less
    # than one mod-8 period, so the comparison does not pass
    win = Window(-16, 16, -16, 16)
    enc = ModuleWindow(encoded_module(I_STAR, BAR, MINUS), win)
    rep = compare_windows(enc, enc, win, 4, 12)
    assert rep.checked_degrees == list(range(-3, 4)) and not rep.mismatches
    assert not rep.ok


@pytest.mark.parametrize("g", [T_STAR, O_STAR, I_STAR, binary_dihedral(12)], ids=str)
def test_closed_form_reports_make_every_u_rank(g):
    # a U-power whose image is zero (for instance out of a degree with
    # H_n = 0) has rank 0 on both sides, so it is compared, not skipped:
    # all 21 U^k pairs (k <= 3) of the -7..7 interior are made
    for field in (QQ, PrimeField(3)):
        for route, orientation, flavor, rep in closed_form_reports(GroupRun(g, field)):
            assert rep.ok and (rep.urank_made, rep.urank_skipped) == (21, 0), (
                str(g), field.name, route, orientation, flavor)


def test_chain_route_builds_no_functor_model_and_no_homology(monkeypatch):
    # the chain route reads every flavor off one U-adic reduction of the
    # source window: no totalization, no homology elimination, no induced U;
    # one GroupRun reduces each orientation's source window once
    from bpfloer.chains import HomologyData
    from bpfloer.equivariant import FunctorModel, UReduction

    built = []
    for cls in (FunctorModel, HomologyData, UReduction):
        def counted(self, *args, real=cls.__init__, name=cls.__name__):
            built.append(name)
            real(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    run = GroupRun(T_STAR)
    win, margin = run.comparison_window()
    for orientation, flavor in PAIRS:
        enc = ModuleWindow(encoded_module(T_STAR, orientation, flavor), win)
        rep = compare_windows(run.homology_window(orientation, flavor, win), enc, win,
                              4, margin, 6)
        assert rep.ok and rep.urank_made > 0
    assert built == ["UReduction", "UReduction"]


def walked_u_ranks(view, n, kmax):
    """Reference for the U-rank table: the walk down from n alone, which
    pushes a basis of im U^k one power further per step and eliminates once
    per step.  An empty image stops asking for U; a None U out of a degree
    the image still reaches leaves that power and the higher ones unranked."""
    f = view.field
    vectors = [{i: f.one} for i in range(view.dim(n))]
    ranks = []
    for k in range(kmax):
        if vectors:
            cols = view._u_columns(n - 4 * k)
            if cols is None:
                return ranks + [None] * (kmax - k)
            images = [_apply_columns(f, cols, v) for v in vectors]
            _, pivots = TrackedEchelon(f).kernel_of_columns(images)
            vectors = [images[j] for j in pivots]
        ranks.append(len(vectors))
    return ranks


class RandomUView(ModuleWindow):
    """A synthetic window view on degrees lo..hi, ModuleWindow's pass over
    random U columns: dims 0-6 per degree, U entries in -3..3 with some
    columns multiples of earlier ones (so ranks drop), and U = None out of
    about one degree in twelve."""

    def __init__(self, seed, field, lo, hi):
        rng = random.Random(seed)
        self.field = field
        self.dims = {n: rng.randint(0, 6) for n in range(lo - 4, hi + 1)}
        self.cols = {}
        for n in range(lo, hi + 1):
            if rng.random() < 1 / 12:
                self.cols[n] = None
                continue
            cols = self.cols[n] = []
            for _ in range(self.dims[n]):
                if cols and rng.random() < 0.3:
                    c, s = rng.choice(cols), field.of(rng.randint(-2, 2))
                    col = {i: field.mul(s, v) for i, v in c.items()}
                else:
                    col = {i: field.of(rng.choice([0, 0, 0, -3, -2, -1, 1, 2, 3]))
                           for i in range(self.dims[n - 4])}
                cols.append({i: v for i, v in col.items() if not field.is_zero(v)})
        self._u_cols = {}
        self.built = []

    def dim(self, n):
        return self.dims.get(n, 0)

    def _build_u_columns(self, n):
        self.built.append(n)
        return self.cols[n]


def table_against_walks(table, view, interior, kmax=6):
    """[(n, table ranks, walked ranks)] for every interior degree n."""
    lo = interior.start
    out = []
    for n in interior:
        km = min(kmax, (n - lo) // 4)
        out.append((n, [table[k, n] for k in range(1, km + 1)], walked_u_ranks(view, n, km)))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=lambda f: f.name)
def test_u_rank_table_matches_the_walk_on_random_views(field):
    # one pass per residue chain against one walk per degree on synthetic
    # views, None U included: every (n, k <= 6), the same ranks and Nones,
    # and U asked for out of the same degrees
    nones = drops = 0
    for seed in range(60):
        hi = random.Random(seed).randint(0, 40)
        interior = range(0, hi + 1)
        view, ref = RandomUView(seed, field, 0, hi), RandomUView(seed, field, 0, hi)
        table = view.u_rank_table(0, hi, 6)
        for n, got, want in table_against_walks(table, ref, interior):
            assert got == want, (seed, n)
            assert RandomUView(seed, field, 0, hi).u_power_ranks(n, len(want)) == want
            nones += want.count(None)
            drops += any(r is not None and r < min(ref.dim(n), ref.dim(n - 4)) for r in want[:1])
        assert sorted(view.built) == sorted(ref.built), seed
    assert nones and drops


def test_bar_window_counts_bars():
    # dims count the bars through n, rank U^k the bars through n and n - 4k;
    # below the window (n - 4k < n_lo) there is no rank
    bw = BarWindow([(0, 8), (4, 4), (1, 9), (1, 9)], 0, 12)
    assert [bw.dim(n) for n in range(-1, 11)] == [0, 1, 2, 0, 0, 2, 2, 0, 0, 1, 2, 0]
    assert bw.u_power_ranks(8, 3) == [1, 1, None]
    assert bw.u_power_ranks(9, 2) == [2, 2]
    assert bw.u_power_rank(1, 4) == 1
    assert bw.u_rank_table(4, 9, 2) == {(1, 8): 1, (1, 9): 2}
    with pytest.raises(BPFloerError, match="does not run down one residue class"):
        BarWindow([(0, 6)], 0, 12)


ACCEPT_GROUPS = ([cyclic(k) for k in range(2, 13)] + [binary_dihedral(k) for k in range(2, 13)]
                 + [T_STAR, O_STAR, I_STAR])


@pytest.mark.parametrize("g", ACCEPT_GROUPS, ids=str)
def test_u_rank_table_matches_the_walk_on_real_windows(g):
    # the oracle is the homology of each flavor's totalized model with the
    # rank of U^k read by induced_rank (HomologyWindow), a rank on every key;
    # the bar view of the chain route must give its dims and its table, every
    # interior degree and k <= 6.  The encoded table's view matches the walk.
    run = GroupRun(g)
    win, margin = run.comparison_window()
    interior = win.interior(4, margin)
    lo, hi = interior.start, interior.stop - 1
    for orientation, flavor in PAIRS:
        fm = run.functor(orientation, flavor, win)
        oracle = HomologyWindow(fm.homology(), fm.u)
        bars = run.homology_window(orientation, flavor, win)
        table = oracle.u_rank_table(lo, hi, 6)
        assert None not in table.values(), (orientation, flavor)
        assert bars.u_rank_table(lo, hi, 6) == table, (orientation, flavor)
        assert [bars.dim(n) for n in interior] == [oracle.dim(n) for n in interior]
        mw = ModuleWindow(encoded_module(g, orientation, flavor), win)
        for n, got, want in table_against_walks(mw.u_rank_table(lo, hi, 6), mw, interior):
            assert got == want, (orientation, flavor, n)


def test_u_rank_table_eliminates_once_per_degree(monkeypatch):
    # the width-48 chain-route comparison of T* (bar, inf): the encoded
    # table's view makes at most one elimination per interior degree, where
    # one walk per degree made one per step, up to six per degree; the bar
    # view counts bars and makes none
    g = T_STAR
    _, margin = GroupRun(g).comparison_window()
    win = Window(-24, 24, -24, 24)
    interior = win.interior(4, margin)
    hw = direct_homology_window(g, BAR, TATE, win)
    mw = ModuleWindow(encoded_module(g, BAR, TATE), win)
    calls = []
    for name in ("__init__", "independent", "kernel_of_columns"):
        def counted(self, *args, real=getattr(TrackedEchelon, name), name=name):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(TrackedEchelon, name, counted)
    hw.u_rank_table(interior.start, interior.stop - 1, 6)
    assert calls == []
    mw.u_rank_table(interior.start, interior.stop - 1, 6)
    eliminations = calls.count("independent") + calls.count("kernel_of_columns")
    assert 0 < eliminations <= len(interior)
    calls.clear()
    rep = compare_windows(hw, mw, win, 4, margin, 6)
    assert rep.ok and rep.urank_made > 3 * len(interior)
    assert calls.count("independent") + calls.count("kernel_of_columns") == eliminations


def zeroed_label_model(g, edge):
    """build_model, except that the s-graph of g has the label of edge zeroed."""
    sg = mk.s_graph(g)
    broken = mk.SGraph(g, sg.vertices, sg.edges, {**sg.labels, edge: 0})

    def broken_model(group, orientation):
        model = build_model(group, orientation)
        model.sgraph = broken
        return model

    return broken_model


def test_compare_self_and_mutation(monkeypatch):
    g = I_STAR
    win, margin = GroupRun(g).comparison_window()
    tiny = Window(-4, 4, -4, 4)
    enc = ModuleWindow(encoded_module(g, BAR, MINUS), tiny)
    assert not compare_windows(enc, enc, tiny)  # an empty safe interior never passes
    # zeroing the label feeding the second-page differential changes the
    # answer and must produce a located mismatch against the direct window
    # homology (a unit rescaling like 4 -> 5 is invisible to dims/ranks,
    # which is exactly the sign-independence the labels are defined up to)
    broken_model = zeroed_label_model(g, ("beta", "alpha"))

    for orientation, flavor in PAIRS:
        pm = encoded_module(g, orientation, flavor)
        enc = ModuleWindow(pm, win)
        assert compare_windows(enc, enc, win, 4, margin, 6), (orientation, flavor)
        if flavor == TATE:
            # Tate towers sit only on the non-free orbits, so no edge label
            # reaches them: drop one family from the table instead
            short = PresentedModule(pm.flavor_tag, pm.families[1:])
            hw = direct_homology_window(g, orientation, flavor, win)
            rep = compare_windows(hw, ModuleWindow(short, win), win, 4, margin, 6)
        else:
            with monkeypatch.context() as m:
                m.setattr(floer, "build_model", broken_model)
                hw = direct_homology_window(g, orientation, flavor, win)
            rep = compare_windows(hw, enc, win, 4, margin, 6)
        # in (bar, +) and (std, -) the zeroed label keeps every dim and
        # shows only in the U-action
        want = "rankU^1" if (orientation, flavor) in ((BAR, PLUS), (STD, MINUS)) else "dim"
        assert not rep.ok and any(m[0] == want for m in rep.mismatches), (
            orientation, flavor, rep.mismatches[:4])


def test_compare_lists_rank_mismatches_by_power_then_degree(monkeypatch):
    # compare_windows reads all U powers from one table per side; the
    # report still lists rank mismatches by (k, n).  I* with (beta, alpha) zeroed
    # on a width-48 window gives rank-U^k mismatches for (bar, +) at several
    # k, with degrees that do not increase along the list
    g = I_STAR
    _, margin = GroupRun(g).comparison_window()
    win = Window(-24, 24, -24, 24)
    monkeypatch.setattr(floer, "build_model", zeroed_label_model(g, ("beta", "alpha")))
    hw = direct_homology_window(g, BAR, PLUS, win)
    rep = compare_windows(hw, ModuleWindow(encoded_module(g, BAR, PLUS), win), win, 4, margin, 6)
    assert rep.mismatches == [
        ("rankU^1", -4, 2, 3), ("rankU^1", 4, 3, 4), ("rankU^2", 0, 2, 3),
        ("rankU^2", 8, 3, 4), ("rankU^3", 4, 2, 3), ("rankU^4", 8, 2, 3),
    ]
    assert (rep.urank_made, rep.urank_skipped) == (55, 0)


def test_page_periodicity_truncated():
    # E^r entries repeat under a shift by 8 in the filtration, away from edges
    g = O_STAR
    model = build_model(g, BAR)
    w = model.window(Window(-13, 19, -12, 22))
    fm = functor_model(w, MINUS, -12, 18)
    pages = FilteredPages(fm.complex)
    for r in (1, 4, 5):
        for s in (0, 4):
            for t in (0, 3):
                a = pages.page_dim(r, s, t)
                b = pages.page_dim(r, s + 8, t)
                assert a == b, (r, s, t, a, b)


def test_stable_z_basis_computed_once():
    # Z^r_s stops depending on r once s - r < min_level; the pages share
    # one basis for all such r, and E^infty still matches direct homology
    model = build_model(T_STAR, BAR)
    fm = functor_model(model.window(Window(-7, 7, -6, 6)), MINUS, -6, 6)
    pages = FilteredPages(fm.complex)
    h = fm.homology()
    for n in fm.complex.degrees():
        assert pages.einfty_total(n) == h.dim(n), n
    for s in range(pages.min_level, pages.max_level + 1):
        for n in fm.complex.degrees():
            for r in range(s - pages.min_level + 1, pages.stable_r() + 1):
                assert pages._z_basis(s, n, r) is pages._z_basis(s, n, r + 1), (s, n, r)


def test_ss_accounting_randomized():
    rng = random.Random(5)
    groups = [cyclic(k) for k in range(2, 9)] + [binary_dihedral(k) for k in range(2, 8)] + [
        T_STAR, O_STAR, I_STAR]
    for _ in range(8):
        g = rng.choice(groups)
        orientation = rng.choice([BAR, STD])
        flavor = rng.choice([PLUS, MINUS, TATE])
        q, p = rng.randint(-9, -2), rng.randint(2, 9)
        lo, hi = rng.randint(-11, -4), rng.randint(4, 11)
        ss_accounting(g, orientation, flavor, Window(q, p, lo, hi))


@pytest.mark.parametrize("g", [T_STAR, O_STAR, binary_dihedral(5), cyclic(6), binary_dihedral(12)],
                         ids=str)
def test_norm_vanishing(g):
    checked = norm_vanishing_and_splitting(GroupRun(g))["checked"]
    assert len(checked) >= 8
    # the safe interior of the comparison window, whatever r_last (3 for D*_12)
    assert checked == list(range(-7, 8))


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_duality_pairing(g):
    assert duality_pairing_report(g) == []


def changed_corrections(pm, change):
    """pm with its first nonempty correction bumped, dropped or extended."""
    key = next(k for k, images in pm.corrections.items() if images)
    images = pm.corrections[key]
    lab, k, c = images[0]
    if change == "bump":
        images = [(lab, k, c + 1)] + images[1:]
    elif change == "drop":
        images = images[1:]
    else:  # every stored image sits at index 0
        images = images + [(lab, k + 1, 1)]
    return PresentedModule(pm.flavor_tag, pm.families, {**pm.corrections, key: images})


@pytest.mark.parametrize("builder", ["positive_bar_module", "negative_std_module"])
@pytest.mark.parametrize("change", ["bump", "drop", "add"])
def test_duality_pairing_catches_a_changed_correction(monkeypatch, builder, change):
    build = getattr(floer, builder)
    for g in (T_STAR, I_STAR, binary_dihedral(6)):
        with monkeypatch.context() as m:
            m.setattr(floer, builder, lambda g: changed_corrections(build(g), change))
            rep = duality_pairing_report(g)
        assert [d[0] for d in rep] == ["transpose"], (str(g), rep)


def test_wrong_flavor_guard():
    model = build_model(T_STAR, STD)
    with pytest.raises(WrongFlavor):
        MinusPages(model)
    # only (bar, -) and its dual (std, +) have a page derivation
    for orientation, flavor in set(PAIRS) - {(BAR, MINUS), (STD, PLUS)}:
        with pytest.raises(WrongFlavor, match="encoded_module.*direct_homology_window"):
            GroupRun(T_STAR).assembled(orientation, flavor)


def test_run_to_einfty_flavors():
    run = GroupRun(O_STAR)
    _, page = run_to_einfty(run, BAR, PLUS)
    assert page == 1
    _, page = run_to_einfty(run, BAR, TATE)
    assert page == 1
    _, page = run_to_einfty(run, STD, MINUS)
    assert page == 1
    _, page = run_to_einfty(run, STD, TATE)
    assert page == 1
    pages, page = run_to_einfty(run, BAR, MINUS)
    assert page == 5 and pages is run.pages
    # the standard-orientation '+' page problem is not solved directly
    with pytest.raises(WrongFlavor):
        run_to_einfty(run, STD, PLUS)


def test_freeness_guard_on_a_kernel_that_drops_the_image():
    # T*'s level-1 kernel of column 0 is spanned by -3U_theta + Z_lambda; U
    # carries it into level 2, so a level-2 kernel without that direction
    # must stop the assembly
    run = GroupRun(T_STAR)
    pages = run.pages
    assert pages.kernels[0][0] == [{0: -3, 1: 1}]
    pages.kernels[0][1] = [{0: QQ.one}]
    msg = r"degree -4 image leaves the next kernel \(column 0\)"
    with pytest.raises(FreenessFailure, match=msg):
        run.assembled(BAR, MINUS)


def test_guard_exceptions_on_corrupted_graphs(monkeypatch):
    # a graph whose walk matrix can never clear the t=3 line must abort
    # rather than loop, and assembly must refuse the torsion classes
    import bpfloer.mckay as mk
    from bpfloer.errors import FreenessFailure, NonDegeneration

    g = I_STAR
    sg = mk.s_graph(g)
    dead = {k: 0 for k in sg.labels}
    broken = mk.SGraph(g, sg.vertices, sg.edges, dead)
    model = build_model(g, BAR)
    model.sgraph = broken
    with pytest.raises((NonDegeneration, FreenessFailure)):
        MinusPages(model)
    monkeypatch.setattr(floer, "build_model", lambda group, orientation: model)
    with pytest.raises((NonDegeneration, FreenessFailure)):
        GroupRun(g).assembled(BAR, MINUS)
