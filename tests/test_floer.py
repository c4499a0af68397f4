"""Spectral sequence pages, assembly, closed-form comparisons."""
import random

import pytest
from fractions import Fraction

from bpfloer.chains import FilteredPages, FiniteComplex
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
    norm_vanishing_and_splitting,
    ss_accounting,
)
from bpfloer.groups import I_STAR, O_STAR, T_STAR, binary_dihedral, cyclic, parse_group
from bpfloer.presented import (
    OPLUS8,
    PI8,
    PIINF8,
    BarWindow,
    Family,
    HomologyWindow,
    ModuleWindow,
    PresentedModule,
    compare_windows,
)
from bpfloer.sparse import TrackedEchelon, _apply_columns
from bpfloer.theorems import encoded_module, negative_bar_module, positive_bar_module


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
    assert GroupRun(cyclic(l)).pages.degeneration_page == 1


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
    # each (std, +) family negates its (bar, -) family's degree and step,
    # swaps its '-' letters for '+' ones and sits at column -c - delta mod 8,
    # its degree moved by the same multiple of 8: delta = 2 when the family
    # has a two-sphere (Z) component, else 0 (the (bar, -) tables name no
    # free orbit)
    minus, plus = negative_bar_module(g), encoded_module(g, STD, PLUS)
    assert (minus.flavor_tag, plus.flavor_tag) == (OPLUS8, PI8)
    swap = str.maketrans({"U": "V", "Z": "W"})
    assert [f.label for f in plus.families] == [f.label.translate(swap) for f in minus.families]
    for fm in minus.families:
        fp = plus.family(fm.label.translate(swap))
        delta = 2 if "Z_" in fm.label else 0
        assert 0 <= fp.column < 8 and fp.column == (-fm.column - delta) % 8, (str(g), fm.label)
        assert (fp.base_degree - fp.column, fp.step) == (
            -fm.base_degree + fm.column + delta, -fm.step), (str(g), fm.label)


def test_dual_transposes_the_corrections_and_is_an_involution():
    # T*: theta - alpha - lambda with alpha free; (bar, +) stores V_theta^0
    # -> g_alpha and W_lambda^0 -> g_alpha, so (std, -) stores their
    # transpose h_alpha^0 -> U_theta^0 + 3 Z_lambda^0
    plus = positive_bar_module(T_STAR)
    assert plus.corrections == {("V_theta", 0): [("g_alpha", 0, 1)],
                                ("W_lambda", 0): [("g_alpha", 0, 3)]}
    minus = plus.dual()
    assert minus.flavor_tag == OPLUS8
    assert minus.corrections == {("h_alpha", 0): [("U_theta", 0, 1), ("Z_lambda", 0, 3)]}
    for g in ALL_GROUPS:
        for pm in (negative_bar_module(g), positive_bar_module(g)):
            back = pm.dual().dual()
            assert (back.flavor_tag, back.families) == (pm.flavor_tag, pm.families), str(g)
            assert {key: sorted(images) for key, images in back.corrections.items()} == {
                key: sorted(images) for key, images in pm.corrections.items()}, str(g)


def test_dual_refuses_what_it_cannot_transpose():
    towers = [Family("V_a", 0, 4, 0), Family("g_b", 1, 0, 0, 0, 0)]
    with pytest.raises(BPFloerError, match="maps pi8 and oplus8, not 'piinf8'"):
        PresentedModule(PIINF8, towers).dual()
    with pytest.raises(BPFloerError, match="expects floor-0 families"):
        PresentedModule(PI8, [Family("T_a", 0, -4, 0, None)]).dual()
    with pytest.raises(BPFloerError, match="expects floor-0 families"):
        PresentedModule(PI8, [Family("x", 0, 4, 0)]).dual()
    # U V_a^1 = V_a^0 by the tower rule: a correction there replaces it
    with pytest.raises(BPFloerError, match="the correction on \\('V_a', 1\\) replaces"):
        PresentedModule(PI8, towers, {("V_a", 1): [("g_b", 0, 1)]}).dual()
    # V_a^0 is the tower image of V_a^1 and a correction's image as well
    with pytest.raises(BPFloerError, match="\\('V_a', 0\\) is hit by its tower"):
        PresentedModule(PI8, towers, {("g_b", 0): [("V_a", 0, 1)]}).dual()


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)], ids=str)
def test_chain_route_catches_a_dropped_bar_plus_correction(monkeypatch, field):
    # I*'s (bar, +) table without the images of (g_alpha, 0), and so its
    # dual (std, -) table without their transpose: the presentation changes
    # and the chain route, which reads each orientation's own model, fails
    # both pairs and no other
    import bpfloer.theorems as theorems

    real = theorems.positive_bar_module

    def dropped(g):
        pm = real(g)
        assert pm.corrections[("g_alpha", 0)]
        corr = {key: images for key, images in pm.corrections.items() if key != ("g_alpha", 0)}
        return PresentedModule(pm.flavor_tag, pm.families, corr)

    monkeypatch.setattr(theorems, "positive_bar_module", dropped)
    reports = closed_form_reports(GroupRun(I_STAR, field))
    assert sorted((o, f) for route, o, f, rep in reports if not rep.ok) == [
        (BAR, PLUS), (STD, MINUS)]
    assert all(route == "chain" for route, o, f, rep in reports if not rep.ok)


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
    # H_n = 0) has rank 0 on both sides, and it is compared like any other:
    # all 21 U^k pairs (k <= 3) of the -7..7 interior are made
    for field in (QQ, PrimeField(3)):
        for route, orientation, flavor, rep in closed_form_reports(GroupRun(g, field)):
            assert rep.ok and rep.urank_made == 21, (
                str(g), field.name, route, orientation, flavor)


def test_chain_route_builds_no_functor_model_and_no_homology(monkeypatch):
    # the chain route reads every flavor off one U-adic reduction of the
    # source window, read straight off the model: no materialized window, no
    # totalization, no homology elimination, no induced U; one GroupRun
    # reduces each orientation's source window once
    from bpfloer.chains import HomologyData
    from bpfloer.donaldson import WindowedComplex
    from bpfloer.equivariant import FunctorModel, UReduction

    built = []
    for cls in (FunctorModel, HomologyData, UReduction, WindowedComplex):
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
    assert built.count("WindowedComplex") == 0
    assert built == ["UReduction", "UReduction"]


def walked_u_ranks(view, n, kmax):
    """Reference for the U-rank table: the walk down from n alone, which
    pushes a basis of im U^k one power further per step and eliminates once
    per step.  An empty image stops asking for U."""
    f = view.field
    vectors = [{i: f.one} for i in range(view.dim(n))]
    ranks = []
    for k in range(kmax):
        if vectors:
            images = [_apply_columns(f, view._u_columns(n - 4 * k), v) for v in vectors]
            _, pivots = TrackedEchelon(f).kernel_of_columns(images)
            vectors = [images[j] for j in pivots]
        ranks.append(len(vectors))
    return ranks


class RandomUView(ModuleWindow):
    """A synthetic window view on degrees lo..hi, all of it linked (no plain
    bar), ModuleWindow's pass over random U columns: dims 0-6 per degree, U
    entries in -3..3 with some columns multiples of earlier ones (so ranks
    drop)."""

    def __init__(self, seed, field, lo, hi):
        rng = random.Random(seed)
        self.field = field
        self.plain = BarWindow([], lo - 4, hi)
        self.by_degree = {n: [(n, i) for i in range(rng.randint(0, 6))]
                          for n in range(lo - 4, hi + 1)}
        self.basis = [b for bs in self.by_degree.values() for b in bs]
        self.cols = {}
        for n in range(lo, hi + 1):
            cols = self.cols[n] = []
            for _ in range(self.dim(n)):
                if cols and rng.random() < 0.3:
                    c, s = rng.choice(cols), field.of(rng.randint(-2, 2))
                    col = {i: field.mul(s, v) for i, v in c.items()}
                else:
                    col = {i: field.of(rng.choice([0, 0, 0, -3, -2, -1, 1, 2, 3]))
                           for i in range(self.dim(n - 4))}
                cols.append({i: v for i, v in col.items() if not field.is_zero(v)})
        self._u_cols = {}
        self.built = []

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
    # views: every (n, k <= 6), the same ranks, and U asked for out of the
    # same degrees
    drops = 0
    for seed in range(60):
        hi = random.Random(seed).randint(0, 40)
        interior = range(0, hi + 1)
        view, ref = RandomUView(seed, field, 0, hi), RandomUView(seed, field, 0, hi)
        table = view.u_rank_table(0, hi, 6)
        for n, got, want in table_against_walks(table, ref, interior):
            assert got == want, (seed, n)
            single = RandomUView(seed, field, 0, hi)
            assert [single.u_power_rank(k, n) for k in range(1, len(want) + 1)] == want
            drops += any(r < min(ref.dim(n), ref.dim(n - 4)) for r in want[:1])
        assert sorted(view.built) == sorted(ref.built), seed
    assert drops


def test_bar_window_counts_bars():
    # dims count the bars through n, rank U^k the bars through n and n - 4k;
    # below the window (n - 4k < n_lo) no bar reaches, so the rank is 0
    bw = BarWindow([(0, 8), (4, 4), (1, 9), (1, 9)], 0, 12)
    assert [bw.dim(n) for n in range(-1, 11)] == [0, 1, 2, 0, 0, 2, 2, 0, 0, 1, 2, 0]
    assert [bw.u_power_rank(k, 8) for k in (1, 2, 3)] == [1, 1, 0]
    assert [bw.u_power_rank(k, 9) for k in (1, 2)] == [2, 2]
    assert bw.u_power_rank(1, 4) == 1
    assert bw.u_rank_table(4, 9, 2) == {(1, 8): 1, (1, 9): 2}
    with pytest.raises(BPFloerError, match="does not run down one residue class"):
        BarWindow([(0, 6)], 0, 12)


def test_bar_window_counts_match_a_walk_over_the_bar_list():
    # random bar lists with repeats and bars ending on both window ends:
    # dim(n) is the number of bars through n and rank U^k out of n the number
    # through both n and n - 4k, counted bar by bar in the list
    rng = random.Random(44)
    seen = {"repeat": 0, "at n_lo": 0, "at n_hi": 0}
    for _ in range(200):
        n_lo, n_hi = rng.randint(-12, 0), rng.randint(1, 14)
        bars = []
        for _ in range(rng.randint(0, 10)):
            lo = rng.choice([n_lo, n_lo + 1, rng.randint(n_lo, n_hi)])
            hi = lo + 4 * rng.randint(0, (n_hi - lo) // 4)
            if rng.random() < 0.3:
                hi = n_hi - (n_hi - lo) % 4
            bars += [(lo, hi)] * rng.choice([1, 1, 2, 3])
        rng.shuffle(bars)
        seen["repeat"] += len(set(bars)) < len(bars)
        seen["at n_lo"] += any(lo == n_lo for lo, _ in bars)
        seen["at n_hi"] += any(hi == n_hi for _, hi in bars)

        def through(n, lo, hi):
            return lo <= n <= hi and (n - lo) % 4 == 0

        bw = BarWindow(bars, n_lo, n_hi)
        for n in range(n_lo - 4, n_hi + 5):
            assert bw.dim(n) == sum(through(n, *b) for b in bars), (bars, n)
            for k in range(1, 7):
                assert bw.u_power_rank(k, n) == sum(
                    through(n, *b) and through(n - 4 * k, *b) for b in bars), (bars, k, n)
        lo, hi = rng.randint(n_lo - 4, n_lo + 4), rng.randint(n_hi - 4, n_hi + 4)
        assert bw.u_rank_table(lo, hi, 6) == {
            (k, n): sum(through(n, *b) and through(n - 4 * k, *b) for b in bars)
            for n in range(lo, hi + 1) for k in range(1, min(6, (n - lo) // 4) + 1)}
    assert min(seen.values()) > 50, seen


def test_bar_window_answers_0_below_its_window():
    # every key of a table that reaches below n_lo has a number: the bars
    # through n and n - 4k, none where n - 4k < n_lo
    bw = BarWindow([(0, 8), (2, 6)], 0, 12)
    table = bw.u_rank_table(-8, 8, 4)
    assert {key: r for key, r in table.items() if r} == {
        (1, 4): 1, (1, 6): 1, (1, 8): 1, (2, 8): 1}
    assert all(r == 0 for (k, n), r in table.items() if n - 4 * k < 0)
    assert (table[1, 2], table[2, 4], table[3, 8]) == (0, 0, 0)
    assert [bw.u_power_rank(k, 4) for k in (1, 2, 3)] == [1, 0, 0]
    assert bw.u_power_rank(2, 2) == 0


class OracleModuleWindow:
    """ModuleWindow before the plain/linked split, the oracle for it: every
    window element in one basis, sorted by degree, and the tagged pass down
    each residue chain mod 4 over all of them (see ModuleWindow)."""

    def __init__(self, module, win, field=QQ):
        self.module, self.win, self.field = module, win, field
        basis = []
        for f in module.families:
            for level in win.levels(f.column):
                s = (level - f.column) // 8
                basis.extend((f.label, k, s) for k in self._indices(f, s))
        self.basis = sorted(basis, key=lambda b: (self._deg(b), b))
        self.by_degree = {}
        for b in self.basis:
            self.by_degree.setdefault(self._deg(b), []).append(b)
        self.index = {b: i for bs in self.by_degree.values() for i, b in enumerate(bs)}

    def _indices(self, f, shift):
        lo, hi = self.win.n_lo, self.win.n_hi
        if f.step == 0:
            ks = range(f.floor or 0, (f.top if f.top is not None else f.floor or 0) + 1)
            return [k for k in ks if lo <= f.degree(k) + 8 * shift <= hi]
        a, b = lo - f.base_degree - 8 * shift, hi - f.base_degree - 8 * shift
        if f.step < 0:
            a, b = -b, -a
        step = abs(f.step)
        return [k for k in range(-((-a) // step), b // step + 1) if f.valid(k)]

    def _deg(self, b):
        label, k, s = b
        return self.module.family(label).degree(k) + 8 * s

    def dim(self, n):
        return len(self.by_degree.get(n, []))

    def u_columns(self, n):
        f = self.field
        cols = []
        for label, k, s in self.by_degree.get(n, []):
            col = {}
            for lab2, k2, coeff in self.module.u_image(label, k):
                s2, rem = divmod(self._deg((label, k, s)) - 4 - self.module.family(lab2).degree(k2), 8)
                assert rem == 0
                pos = self.index.get((lab2, k2, s2))
                if pos is not None:
                    col[pos] = f.add(col.get(pos, f.zero), f.of(coeff))
            cols.append({p: v for p, v in col.items() if not f.is_zero(v)})
        return cols

    def u_rank_table(self, lo, hi, kmax):
        table = {}
        for top in range(max(lo, hi - 3), hi + 1):
            table.update(self.rank_pass(top, lo, kmax))
        return table

    def rank_pass(self, top, bottom, kmax):
        f = self.field
        ranks = {}
        tagged = [(0, {i: f.one}) for i in range(self.dim(top))]
        m = top
        while True:
            tags = [t for t, _ in tagged]
            for n in range(m + 4, min(top, m + 4 * kmax) + 1, 4):
                j = (n - m) // 4
                ranks[j, n] = sum(t >= j for t in tags)
            if m - 4 < bottom:
                return ranks
            ech, cols = TrackedEchelon(f), self.u_columns(m)
            pivots = ech.independent([_apply_columns(f, cols, v) for _, v in tagged])
            tagged = [(tagged[j][0] + 1, ech.rows[c]) for j, c in pivots.items()]
            taken = set(pivots.values())
            tagged += [(0, {i: f.one}) for i in range(self.dim(m - 4)) if i not in taken]
            m -= 4


def assert_same_window(pm, win, field):
    """dims on and around win and the U-rank table over the whole window,
    ModuleWindow against the oracle; returns the ModuleWindow."""
    mw, oracle = ModuleWindow(pm, win, field), OracleModuleWindow(pm, win, field)
    degrees = range(win.n_lo - 4, win.n_hi + 5)
    assert [mw.dim(n) for n in degrees] == [oracle.dim(n) for n in degrees]
    assert mw.u_rank_table(win.n_lo, win.n_hi, 6) == oracle.u_rank_table(win.n_lo, win.n_hi, 6)
    assert mw.counts()[0] == len(oracle.basis)
    return mw


ACCEPT_GROUPS = ([cyclic(k) for k in range(2, 13)] + [binary_dihedral(k) for k in range(2, 13)]
                 + [T_STAR, O_STAR, I_STAR])


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=lambda f: f.name)
def test_module_window_matches_the_oracle(field):
    # the chain route's width-48 windows at offsets 0 and 3: the plain bars
    # plus the linked pass give the whole-basis pass's dims and table.  The
    # four uncorrected pairs have no linked element at all
    linked = set()
    for g in ACCEPT_GROUPS:
        for offset in (0, 3):
            win = Window(-24, 24, -24, 24).shifted(offset)
            for orientation, flavor in PAIRS:
                mw = assert_same_window(encoded_module(g, orientation, flavor), win, field)
                if mw.basis:
                    linked.add((orientation, flavor))
    assert linked == {(BAR, PLUS), (STD, MINUS)}


def planted_module():
    """Every kind of family ModuleWindow splits: plain ones, a step-1 tower
    with floor and top, step-0 classes and a Laurent tower; and linked ones,
    towers with an empty correction's cut (steps 4 and -2), a correction
    from one tower into itself and another tower, and one class into
    another with coefficient 3."""
    fams = [Family("cut", 0, 4, 0), Family("two", 6, -2, 4), Family("one", 3, 1, 0, -3, 9),
            Family("pts", 5, 0, 4, 0, 2), Family("lau", 1, -4, 0, None),
            Family("src", 2, 4, 0), Family("dst", -2, 4, 4), Family("three", 2, 0, 4, 0, 0),
            Family("sink", -2, 0, 4, 0, 0)]
    corrections = {("cut", 2): [], ("two", 3): [],
                   ("src", 1): [("src", 0, 1), ("dst", 1, 2)], ("three", 0): [("sink", 0, 3)]}
    return PresentedModule(PI8, fams, corrections)


def test_module_window_on_planted_modules():
    # a cut tower is linked, and its ranks are those of its bars, which end
    # at the cut: degrees 0..20 of the step-4 tower cut at index 2 (degree
    # 8); a step -2 tower is two chains per copy
    cut = ModuleWindow(PresentedModule(PI8, [Family("cut", 0, 4, 0)], {("cut", 2): []}),
                       Window(-1, 1, -20, 20))
    bars = BarWindow([(8, 20), (0, 4)], -20, 20)
    assert cut.counts() == (6, 0, 6)
    assert [cut.dim(n) for n in range(-24, 25)] == [bars.dim(n) for n in range(-24, 25)]
    assert cut.u_rank_table(-20, 20, 6) == bars.u_rank_table(-20, 20, 6)
    two = ModuleWindow(PresentedModule(PI8, [Family("two", 6, -2, 0)]), Window(-1, 1, -8, 8))
    assert two.plain.bars == {(-6, 6): 1, (-8, 4): 1}
    assert [two.u_power_rank(k, 4) for k in (1, 2, 3)] == [1, 1, 1]
    # the whole planted module against the oracle, over fields where the
    # correction's 3 does and does not vanish, at windows through every
    # residue mod 8
    tables = {}
    for field in (QQ, PrimeField(3), PrimeField(5)):
        for offset in range(8):
            win = Window(-13, 11, -17, 14).shifted(offset)
            mw = assert_same_window(planted_module(), win, field)
            elements, bars, linked = mw.counts()
            assert bars and linked and elements > bars + linked
            tables[field.name, offset] = mw.u_rank_table(win.n_lo, win.n_hi, 6)
    assert tables["Q", 0] == tables["F5", 0] != tables["F3", 0]


@pytest.mark.parametrize("g", ACCEPT_GROUPS, ids=str)
def test_u_rank_table_matches_the_walk_on_real_windows(g):
    # the oracle is the homology of each flavor's totalized model with the
    # rank of U^k read by induced_rank (HomologyWindow), a rank on every key;
    # the bar view of the chain route must give its dims and its table, every
    # interior degree and k <= 6.  The encoded table's view matches the
    # whole-basis pass.
    run = GroupRun(g)
    win, margin = run.comparison_window()
    interior = win.interior(4, margin)
    lo, hi = interior.start, interior.stop - 1
    for orientation, flavor in PAIRS:
        fm = functor_model(run.model(orientation).window(win.source), flavor, win.n_lo, win.n_hi)
        oracle = HomologyWindow(fm.homology(), fm.u)
        bars = run.homology_window(orientation, flavor, win)
        table = oracle.u_rank_table(lo, hi, 6)
        assert None not in table.values(), (orientation, flavor)
        assert bars.u_rank_table(lo, hi, 6) == table, (orientation, flavor)
        assert [bars.dim(n) for n in interior] == [oracle.dim(n) for n in interior]
        pm = encoded_module(g, orientation, flavor)
        mw, whole = ModuleWindow(pm, win), OracleModuleWindow(pm, win)
        assert mw.u_rank_table(lo, hi, 6) == whole.u_rank_table(lo, hi, 6), (orientation, flavor)
        assert [mw.dim(n) for n in interior] == [whole.dim(n) for n in interior]


def test_u_rank_table_eliminates_once_per_degree(monkeypatch):
    # the width-48 chain-route comparisons of T*: (bar, inf) has no
    # correction, so its encoded view counts bars and makes no elimination;
    # (bar, +) has corrections that link families and makes at most one per
    # interior degree.  The bar view of the chain route makes none
    g = T_STAR
    _, margin = GroupRun(g).comparison_window()
    win = Window(-24, 24, -24, 24)
    interior = win.interior(4, margin)
    calls = []
    for name in ("__init__", "independent", "kernel_of_columns"):
        def counted(self, *args, real=getattr(TrackedEchelon, name), name=name):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(TrackedEchelon, name, counted)
    for flavor in (TATE, PLUS):
        hw = direct_homology_window(g, BAR, flavor, win)
        mw = ModuleWindow(encoded_module(g, BAR, flavor), win)
        calls.clear()
        hw.u_rank_table(interior.start, interior.stop - 1, 6)
        assert calls == []
        mw.u_rank_table(interior.start, interior.stop - 1, 6)
        eliminations = calls.count("independent") + calls.count("kernel_of_columns")
        if flavor == TATE:
            assert calls == []
        else:
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
    assert rep.urank_made == 55


class OneUnansweredKey:
    """A window view that answers None for one U-rank key and agrees with
    the view it wraps everywhere else."""

    def __init__(self, view, key):
        self.view, self.key = view, key

    def dim(self, n):
        return self.view.dim(n)

    def u_rank_table(self, lo, hi, kmax):
        return {**self.view.u_rank_table(lo, hi, kmax), self.key: None}


def test_compare_fails_on_a_key_a_view_does_not_answer():
    # every key is compared: a view with no number for one interior key
    # mismatches the view that has one, and the comparison fails
    run = GroupRun(T_STAR)
    win, margin = run.comparison_window()
    mw = ModuleWindow(encoded_module(T_STAR, BAR, PLUS), win)
    assert compare_windows(mw, mw, win, 4, margin, 3).ok
    rank = mw.u_power_rank(1, 3)
    for left, right, want in ((OneUnansweredKey(mw, (1, 3)), mw, (None, rank)),
                              (mw, OneUnansweredKey(mw, (1, 3)), (rank, None))):
        rep = compare_windows(left, right, win, 4, margin, 3)
        assert not rep.ok and rep.mismatches == [("rankU^1", 3, *want)]
        assert rep.urank_made == 21


class OraclePages:
    """The generic page E^r_{s,t} = Z^r_s / (Z^(r-1)_(s-1) + d Z^(r-1)_(s+r-1)),
    Z^r_s = {x in F_s C_n : dx in F_(s-r) C_(n-1)}, one kernel per (s, n, r)
    with rows keyed by position: the oracle for FilteredPages' E^infinity."""

    def __init__(self, complex_):
        self.complex = complex_
        levels = [l for lst in complex_.levels.values() for l in lst]
        self.min_level, self.max_level = min(levels), max(levels)
        self._z = {}

    def stable_r(self):
        return self.max_level - self.min_level + 2

    def z_basis(self, s, n, r):
        # once s - r < min_level the row filter keeps every row, so Z^r_s no
        # longer depends on r: clamp it to share one entry
        r = min(r, s - self.min_level + 1)
        if (s, n, r) not in self._z:
            cx = self.complex
            idxs = [i for i, l in enumerate(cx.levels.get(n, [])) if l <= s]
            lower = cx.levels.get(n - 1, [])
            cols = [{row: v for row, v in cx.boundary_columns(n)[i].items() if lower[row] > s - r}
                    for i in idxs]
            kernel, _ = TrackedEchelon(cx.field).kernel_of_columns(cols)
            self._z[s, n, r] = [{idxs[i]: v for i, v in vec.items()} for vec in kernel]
        return self._z[s, n, r]

    def page_dim(self, r, s, t):
        """dim E^r_{s,t} for r >= 1."""
        f, n = self.complex.field, s + t
        z = self.z_basis(s, n, r)
        if not z:
            return 0
        ech = TrackedEchelon(f)
        for vec in self.z_basis(s - 1, n, r - 1):
            ech.insert(vec)
        bcols = self.complex.boundary_columns(n + 1)
        for vec in self.z_basis(s + r - 1, n + 1, r - 1):
            ech.insert(_apply_columns(f, bcols, vec))
        bottom = ech.rank
        for vec in z:
            ech.insert(vec)
        return ech.rank - bottom


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_einfty_rows_match_the_oracle(field):
    # every level of every degree, on verify's accounting window, (bar, -)
    # and (std, +) of the acceptance groups
    win = Window(-9, 7, -10, 10)
    compared = nonzero = 0
    for g in ALL_GROUPS:
        for orientation, flavor in ((BAR, MINUS), (STD, PLUS)):
            w = build_model(g, orientation).window(win, field)
            cx = functor_model(w, flavor, win.n_lo, win.n_hi).complex
            pages, oracle = FilteredPages(cx), OraclePages(cx)
            r = oracle.stable_r()
            for n in cx.degrees():
                row = pages.einfty_row(n)
                assert list(row) == list(range(oracle.min_level, oracle.max_level + 1))
                for s, dim in row.items():
                    assert dim == oracle.page_dim(r, s, n - s), (str(g), orientation, n, s)
                    compared += 1
                    nonzero += dim > 0
    assert nonzero > 800 and compared > 5 * nonzero, (compared, nonzero)


def test_page_periodicity_truncated():
    # E^r entries repeat under a shift by 8 in the filtration, away from edges
    g = O_STAR
    model = build_model(g, BAR)
    w = model.window(Window(-13, 19, -12, 22))
    fm = functor_model(w, MINUS, -12, 18)
    oracle, pages = OraclePages(fm.complex), FilteredPages(fm.complex)
    for r in (1, 4, 5, oracle.stable_r()):
        for s in (0, 4):
            for t in (0, 3):
                a = oracle.page_dim(r, s, t)
                b = oracle.page_dim(r, s + 8, t)
                assert a == b, (r, s, t, a, b)
    seen = set()
    for s in (0, 4):
        for t in (-8, -4, 0, 3):
            a, b = pages.einfty_row(s + t)[s], pages.einfty_row(s + t + 8)[s + 8]
            assert a == b, (s, t, a, b)
            seen.add(a)
    assert seen == {0, 1}


def test_filtered_pages_refuse_a_boundary_that_raises_the_level():
    cx = FiniteComplex(QQ)
    cx.add_generator(0, "y", level=2)
    cx.add_generator(1, "x", level=1)
    cx.set_boundary(1, "x", {"y": 1})
    with pytest.raises(BPFloerError, match="d raises the level in degree 1: 'x' at level 1 "
                                           "hits 'y' at level 2"):
        FilteredPages(cx)
    # the same pair with d lowering the level cancels: E^infinity is 0
    ok = FiniteComplex(QQ)
    ok.add_generator(0, "y", level=1)
    ok.add_generator(1, "x", level=2)
    ok.set_boundary(1, "x", {"y": 1})
    pages = FilteredPages(ok)
    assert (pages.einfty_row(0), pages.einfty_row(1)) == ({1: 0, 2: 0}, {1: 0, 2: 0})


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


def test_wrong_flavor_guard():
    model = build_model(T_STAR, STD)
    with pytest.raises(WrongFlavor):
        MinusPages(model)
    # only (bar, -) and its dual (std, +) have a page derivation
    for orientation, flavor in set(PAIRS) - {(BAR, MINUS), (STD, PLUS)}:
        with pytest.raises(WrongFlavor, match="encoded_module.*direct_homology_window"):
            GroupRun(T_STAR).assembled(orientation, flavor)


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
    # rather than loop; the assembly never sees the survivors
    import bpfloer.mckay as mk
    from bpfloer.errors import NonDegeneration

    g = I_STAR
    sg = mk.s_graph(g)
    dead = {k: 0 for k in sg.labels}
    broken = mk.SGraph(g, sg.vertices, sg.edges, dead)
    model = build_model(g, BAR)
    model.sgraph = broken
    with pytest.raises(NonDegeneration):
        MinusPages(model)
    monkeypatch.setattr(floer, "build_model", lambda group, orientation: model)
    with pytest.raises(NonDegeneration):
        GroupRun(g).assembled(BAR, MINUS)
