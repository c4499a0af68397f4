"""Double-complex functor models, bar oracle, norm data, triangle checks."""
import random

import pytest

from bpfloer.chains import HomologyData, induced_rank
from bpfloer.donaldson import BAR, STD, Window, build_model, single_orbit_complex
from bpfloer.equivariant import (
    MINUS,
    PLUS,
    TATE,
    BarComplexes,
    ColGen,
    FunctorModel,
    NormData,
    UReduction,
    bar_oracle,
    exact_triangle_check,
    functor_model,
    orbit_homology,
    u_reduction,
)
from bpfloer.errors import BPFloerError, OracleMismatch
from bpfloer.fields import PrimeField, QQ
from bpfloer.groups import (
    FULLY_REDUCIBLE,
    IRREDUCIBLE,
    REDUCIBLE,
    I_STAR,
    O_STAR,
    T_STAR,
    binary_dihedral,
    cyclic,
)
from bpfloer.presented import ModuleWindow
from bpfloer.sparse import _apply_columns


KINDS = [FULLY_REDUCIBLE, REDUCIBLE, IRREDUCIBLE]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("flavor", [PLUS, MINUS, TATE])
def test_orbit_homology_closed_forms(kind, flavor):
    cx, u = single_orbit_complex(kind, 0, 3)
    fm = FunctorModel(cx, u, flavor, -20, 20)
    fm.complex.check_dd_zero()
    h = fm.homology()
    pm = orbit_homology(kind, flavor)
    mw = ModuleWindow(pm, Window(-1, 1, -20, 20))
    for n in range(-14, 15):
        assert h.dim(n) == mw.dim(n), (kind, flavor, n)


def test_free_orbit_flavors():
    cx, u = single_orbit_complex(IRREDUCIBLE, 0, 3)
    for flavor, want in ((PLUS, {0: 1}), (MINUS, {3: 1}), (TATE, {})):
        h = FunctorModel(cx, u, flavor, -16, 16).homology()
        assert {n: h.dim(n) for n in range(-10, 11) if h.dim(n)} == want


def test_orbit_u_rules():
    # positive flavor: step-4 tower on a point orbit, step-2 on a sphere orbit
    pm = orbit_homology(FULLY_REDUCIBLE, PLUS)
    assert pm.u_image("V", 3) == [("V", 2, 1)]
    assert pm.u_image("V", 0) == []
    pm = orbit_homology(REDUCIBLE, PLUS)
    assert pm.u_image("W", 5) == [("W", 3, 1)]
    pm = orbit_homology(REDUCIBLE, MINUS)
    assert pm.u_image("Z", 1) == [("Z", 3, 1)]
    pm = orbit_homology(FULLY_REDUCIBLE, TATE)
    assert pm.u_image("T", -5) == [("T", -4, 1)]


def test_double_complex_axioms_fuzz():
    rng = random.Random(9)
    groups = [cyclic(k) for k in range(1, 9)] + [binary_dihedral(k) for k in range(2, 9)] + [
        T_STAR, O_STAR, I_STAR]
    for _ in range(10):
        g = rng.choice(groups)
        orientation = rng.choice([BAR, STD])
        flavor = rng.choice([PLUS, MINUS, TATE])
        q = rng.randint(-9, -1)
        p = rng.randint(1, 9)
        model = build_model(g, orientation)
        w = model.window(Window(q, p, q + 1, p + 3))
        fm = functor_model(w, flavor, q - 4, p + 6)
        cx = fm.complex
        cx.check_dd_zero()
        f = cx.field
        # split the model's own boundary by target column: the same column p
        # is the vertical piece, column p - 1 the horizontal one
        dv, dh = {}, {}
        for n in cx.degrees():
            dv[n], dh[n] = [], []
            for cg, col in zip(cx.basis[n], cx.boundary_columns(n)):
                drop = {row: cg.p - cx.basis[n - 1][row].p for row in col}
                assert set(drop.values()) <= {0, 1}
                dv[n].append({row: v for row, v in col.items() if drop[row] == 0})
                dh[n].append({row: v for row, v in col.items() if drop[row] == 1})
        for n in cx.degrees():
            for pos in range(cx.dim(n)):
                h, v = dh[n][pos], dv[n][pos]
                assert not _apply_columns(f, dh.get(n - 1, []), h)
                assert not _apply_columns(f, dv.get(n - 1, []), v)
                hv = _apply_columns(f, dh.get(n - 1, []), v)
                vh = _apply_columns(f, dv.get(n - 1, []), h)
                assert not _apply_columns(f, [hv, vh], {0: f.one, 1: f.one})
        assert fm.u.is_chain_map(sign=1)


@pytest.mark.parametrize("g", [T_STAR, cyclic(7), binary_dihedral(5)], ids=str)
@pytest.mark.parametrize("orientation", [BAR, STD])
@pytest.mark.parametrize("flavor", [PLUS, MINUS, TATE])
def test_functor_model_matches_its_label_spec(g, orientation, flavor):
    # read every generator through its label: the boundary of ColGen(p, g)
    # is the source boundary in column p plus (-1)^(n+1) u in column p - 1,
    # and U sends it to ColGen(p - 1, g); a block-offset slip in the
    # positional build keeps dd = 0 but breaks this
    w = build_model(g, orientation).window(Window(-9, 7, -8, 10))
    src, su = w.complex, w.u
    fm = functor_model(w, flavor, -12, 14)
    cx, f = fm.complex, fm.complex.field
    made = 0
    for n in cx.degrees():
        lower, below = cx.index.get(n - 1, {}), cx.index.get(n - 4, {})
        sgn = f.of(1 if (n + 1) % 2 == 0 else -1)
        for cg in cx.basis[n]:
            pos = cx.index[n][cg]
            d = n - 4 * cg.p
            spos = src.index[d][cg.gen]
            want = {}
            for row, v in src.boundary_columns(d)[spos].items():
                lab = ColGen(cg.p, src.basis[d - 1][row])
                if lab in lower:
                    want[lower[lab]] = v
            for row, v in su.column(d, spos).items():
                lab = ColGen(cg.p - 1, src.basis[d + 3][row])
                if lab in lower:
                    want[lower[lab]] = f.mul(sgn, v)
                    made += 1
            assert cx.boundary_columns(n)[pos] == want, (n, cg)
            down = ColGen(cg.p - 1, cg.gen)
            assert fm.u.column(n, pos) == ({below[down]: f.one} if down in below else {}), (n, cg)
    # the u part of the boundary is exercised wherever the source has one
    # (C_7 has no irreducible flat connection, so its u is zero)
    assert (made > 0) == any(col for cols in su.columns.values() for col in cols)


def test_tate_u_bijective_on_chains():
    model = build_model(O_STAR, BAR)
    w = model.window(Window(-9, 15, -8, 18))
    fm = functor_model(w, TATE, -8, 18)
    f = fm.complex.field
    # interior degrees: the column shift is a degreewise bijection
    for n in range(-4, 15):
        cols = [fm.u.column(n, pos) for pos in range(fm.complex.dim(n))]
        assert all(len(c) == 1 for c in cols)
        targets = {next(iter(c)) for c in cols}
        assert len(targets) == len(cols) == fm.complex.dim(n - 4)


@pytest.mark.parametrize("flavor", [PLUS, MINUS])
def test_bar_oracle_single_orbit(flavor):
    cx, u = single_orbit_complex(FULLY_REDUCIBLE, 0, 3)

    class FakeWindow:
        complex = cx

    fw = FakeWindow()
    fw.u = u
    bar, model, iso = bar_oracle(fw, flavor, 0 if flavor == PLUS else -20, 20 if flavor == PLUS else 3)
    hb, hm = HomologyData(bar.complex), model.homology()
    degs = range(0, 21, 4) if flavor == PLUS else range(3, -21, -4)
    for n in model.complex.degrees():
        assert hb.dim(n) == hm.dim(n)
    if flavor == PLUS:
        for n in range(0, 17):
            assert hm.dim(n) == (1 if n % 4 == 0 else 0)


def test_bar_oracle_zero_complex():
    from bpfloer.chains import ChainMap, FiniteComplex

    cx = FiniteComplex(QQ)

    class FakeWindow:
        complex = cx

    fw = FakeWindow()
    fw.u = ChainMap(cx, cx, 3)
    bar, model, iso = bar_oracle(fw, PLUS, 0, 8)
    assert bar.complex.total_dim() == 0 and model.complex.total_dim() == 0


@pytest.mark.parametrize("g", [T_STAR, O_STAR, cyclic(4), binary_dihedral(3)], ids=str)
@pytest.mark.parametrize("flavor", [PLUS, MINUS])
def test_bar_oracle_group_windows(g, flavor):
    model = build_model(g, BAR)
    w = model.window(Window(-9, 15, -8, 18))
    bar, fmodel, iso = bar_oracle(w, flavor, -8, 12)
    hb, hm = HomologyData(bar.complex), fmodel.homology()
    for n in fmodel.complex.degrees():
        assert hb.dim(n) == hm.dim(n)


def test_bar_oracle_detects_corruption():
    # breaking one sign in the literal bar differential must be caught
    model = build_model(T_STAR, BAR)
    w = model.window(Window(-9, 7, -8, 10))
    bar = BarComplexes(w, PLUS, -8, 10)
    fm = functor_model(w, PLUS, -8, 10)
    iso = bar.sign_iso(fm)
    # corrupt one boundary entry
    for n in sorted(bar.complex.boundary, reverse=True):
        cols = bar.complex.boundary[n]
        for col in cols:
            if col:
                k = next(iter(col))
                col[k] = QQ.mul(col[k], QQ.of(-1))
                with pytest.raises(OracleMismatch):
                    _recheck(bar, fm, iso)
                col[k] = QQ.mul(col[k], QQ.of(-1))
                return
    raise AssertionError("no boundary entry found to corrupt")


@pytest.mark.parametrize("flavor", [PLUS, MINUS])
def test_bar_oracle_catches_an_extra_generator(monkeypatch, flavor):
    # an isolated bar generator commutes with every square but is not in the
    # image of iso; the homologies then differ, and the oracle must say so
    import bpfloer.equivariant as equivariant

    class Padded(BarComplexes):
        def __init__(self, *args):
            super().__init__(*args)
            self.complex.add_generator(0, "extra")

    monkeypatch.setattr(equivariant, "BarComplexes", Padded)
    w = build_model(T_STAR, BAR).window(Window(-9, 7, -8, 10))
    with pytest.raises(OracleMismatch, match="degree 0 has"):
        bar_oracle(w, flavor, -8, 10)


def _recheck(bar, model, iso):
    f = model.complex.field
    for n in model.complex.degrees():
        for pos in range(model.complex.dim(n)):
            lhs = {}
            for row, v in iso.column(n, pos).items():
                for row2, w2 in bar.complex.boundary_columns(n)[row].items():
                    lhs[row2] = f.add(lhs.get(row2, f.zero), f.mul(v, w2))
            rhs = iso.apply(n - 1, model.complex.boundary_columns(n)[pos])
            for k in set(lhs) | set(rhs):
                if not f.is_zero(f.sub(lhs.get(k, f.zero), rhs.get(k, f.zero))):
                    raise OracleMismatch("square fails")


@pytest.mark.parametrize("g", [T_STAR, O_STAR, I_STAR, cyclic(5), binary_dihedral(4)], ids=str)
def test_norm_data(g):
    model = build_model(g, BAR)
    w = model.window(Window(-9, 15, -8, 18))
    plus = functor_model(w, PLUS, -12, 12)
    minus = functor_model(w, MINUS, -12, 12)
    tate = functor_model(w, TATE, -12, 12)
    nd = NormData(plus, minus)
    assert nd.check_chain_map()
    assert nd.check_homotopy()
    assert nd.cone_matches_tate(tate)


def test_norm_image_on_free_orbit_points_only():
    model = build_model(O_STAR, BAR)
    w = model.window(Window(-9, 15, -8, 18))
    plus = functor_model(w, PLUS, -12, 12)
    minus = functor_model(w, MINUS, -12, 12)
    nd = NormData(plus, minus)
    for n in plus.complex.degrees():
        for pos in range(plus.complex.dim(n)):
            for row in nd.nu.column(n, pos):
                tgt = minus.complex.basis[n + 3][row]
                assert tgt.gen.t == 3  # only top classes of free orbits


def _dense_rank_and_kernel(cols, nrows, f):
    """Rank and a kernel basis of the nrows-row matrix with the given sparse
    columns, by the tests' own dense Gauss-Jordan elimination over f."""
    a = [[col.get(i, f.zero) for col in cols] for i in range(nrows)]
    pivots = []
    for j in range(len(cols)):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if not f.is_zero(a[i][j])), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = f.inv(a[r][j])
        a[r] = [f.mul(x, inv) for x in a[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(a[i][j]):
                c = a[i][j]
                a[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(a[i], a[r])]
        pivots.append(j)
    kernel = []
    for j in (j for j in range(len(cols)) if j not in pivots):
        v = {j: f.one}
        for row, pj in zip(a, pivots):
            if not f.is_zero(row[j]):
                v[pj] = f.neg(row[j])
        kernel.append(v)
    return len(pivots), kernel


def dense_induced_rank(source, target, columns, n, m):
    """dim (f(Z_n) + B_m) - dim B_m for the chain map f with these columns
    out of degree n, with Z_n and both spans from dense elimination."""
    f = source.field
    _, cycles = _dense_rank_and_kernel(source.boundary_columns(n), source.dim(n - 1), f)
    images = []
    for z in cycles:
        img = {}
        for j, x in z.items():
            for i, v in columns[j].items():
                img[i] = f.add(img.get(i, f.zero), f.mul(x, v))
        images.append(img)
    bounds = target.boundary_columns(m + 1)
    spanned, _ = _dense_rank_and_kernel(images + bounds, target.dim(m), f)
    return spanned - _dense_rank_and_kernel(bounds, target.dim(m), f)[0]


def u_power_columns(fm, n, k):
    """The columns of the chain-level U^k out of degree n of fm."""
    cols = [{i: fm.complex.field.one} for i in range(fm.complex.dim(n))]
    for j in range(k):
        cols = [fm.u.apply(n - 4 * j, c) for c in cols]
    return cols


def nu_columns(norm, d):
    return [norm.nu.column(d, pos) for pos in range(norm.plus.complex.dim(d))]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_induced_rank_against_the_dense_oracle(field):
    # U, U^2 and U^3 on the three flavors of T* and D*_4 (both orientations)
    # and of the single-orbit windows, and nu from '+' to '-' (nonzero on
    # homology for a free orbit): every degree of each model.  Ranks drop
    # below the dims at the tower ends, and some lie strictly between 0 and
    # both dims
    sources = []
    for g in (T_STAR, binary_dihedral(4)):
        for orientation in (BAR, STD):
            w = build_model(g, orientation).window(Window(-9, 15, -8, 18), field)
            sources.append([functor_model(w, flavor, -12, 12) for flavor in (PLUS, MINUS, TATE)])
    for kind in KINDS:
        cx, u = single_orbit_complex(kind, 0, 3, field)
        sources.append([FunctorModel(cx, u, flavor, -12, 12) for flavor in (PLUS, MINUS, TATE)])
    compared = nonzero = drops = partial = nu_nonzero = 0
    for plus, minus, tate in sources:
        for fm in (plus, minus, tate):
            h = fm.homology()
            for n in fm.complex.degrees():
                for k in (1, 2, 3):
                    cols = u_power_columns(fm, n, k)
                    got = induced_rank(h, h, cols, n, n - 4 * k)
                    assert got == dense_induced_rank(fm.complex, fm.complex, cols, n, n - 4 * k), \
                        (fm.flavor, n, k)
                    dims = h.dim(n), h.dim(n - 4 * k)
                    compared += 1
                    nonzero += got > 0
                    drops += min(dims) > 0 and got < max(dims)
                    partial += 0 < got < min(dims)
        norm = NormData(plus, minus)
        hp, hm = plus.homology(), minus.homology()
        for d in plus.complex.degrees():
            cols = nu_columns(norm, d)
            got = induced_rank(hp, hm, cols, d, d + 3)
            assert got == dense_induced_rank(plus.complex, minus.complex, cols, d, d + 3), d
            nu_nonzero += got > 0
    assert compared > 700 and nonzero and drops and partial and nu_nonzero


def test_induced_rank_refuses_columns_of_another_degree():
    cx, u = single_orbit_complex(FULLY_REDUCIBLE, 0, 3)
    fm = FunctorModel(cx, u, PLUS, -12, 12)
    with pytest.raises(BPFloerError, match="columns out of degree 0"):
        induced_rank(fm.homology(), fm.homology(), [], 0, -4)


def triangle_norm_rank(plus, minus, degrees):
    """sum over n of the rank of H(nu) out of Hplus_(n-3) and Hplus_(n-4),
    each read directly by induced_rank."""
    norm = NormData(plus, minus)
    hp, hm = plus.homology(), minus.homology()
    return sum(induced_rank(hp, hm, nu_columns(norm, d), d, d + 3)
               for n in degrees for d in (n - 3, n - 4))


@pytest.mark.parametrize("g", [T_STAR, O_STAR, cyclic(5), binary_dihedral(4), I_STAR], ids=str)
def test_exact_triangle(g):
    model = build_model(g, BAR)
    w = model.window(Window(-9, 15, -8, 18))
    models = [functor_model(w, flavor, -12, 12) for flavor in (PLUS, MINUS, TATE)]
    report = exact_triangle_check(*models, Window(-9, 15, -8, 12).interior(4, 4))
    assert report["checked"] == list(range(-3, 8)) and report["flagged_boundary"] == []
    # the reversed orientation's norm map vanishes on homology, and the rank
    # the triangle reads from dims is the rank of H(nu) itself
    assert report["norm_rank"] == 0
    assert triangle_norm_rank(models[0], models[1], report["checked"]) == 0


@pytest.mark.parametrize("g", [T_STAR, binary_dihedral(30)], ids=str)
def test_exact_triangle_ranks_each_boundary_once(g, monkeypatch):
    # no representatives and no induced maps: the 15 degrees -7..7 read the
    # dims of Hminus and Hinf at -7..7 and of Hplus at -11..3, each from the
    # ranks of the boundaries out of and into it, so each model ranks its
    # boundaries out of 16 degrees, once each (a degree off the complex
    # needs no elimination)
    from bpfloer.floer import GroupRun
    from bpfloer.sparse import TrackedEchelon

    run = GroupRun(g)
    win, margin = run.comparison_window()
    models = [run.functor(BAR, flavor, win) for flavor in (PLUS, MINUS, TATE)]
    calls = []
    real_rank, real_kernel = TrackedEchelon.independent, TrackedEchelon.kernel_of_columns

    def independent(self, vectors):
        calls.append("rank")
        return real_rank(self, vectors)

    def kernel_of_columns(self, columns):
        calls.append("kernel")
        return real_kernel(self, columns)

    monkeypatch.setattr(TrackedEchelon, "independent", independent)
    monkeypatch.setattr(TrackedEchelon, "kernel_of_columns", kernel_of_columns)
    report = exact_triangle_check(*models, win.interior(4, margin))
    assert report["checked"] == list(range(-7, 8)) and report["norm_rank"] == 0
    ranked = [n in m.complex.basis for m, lo in zip(models, (-11, -7, -7)) for n in range(lo, lo + 16)]
    assert calls == ["rank"] * sum(ranked)


def test_cone_comparison_refuses_a_tate_model_with_an_extra_generator():
    w = build_model(T_STAR, BAR).window(Window(-9, 15, -8, 18))
    plus, minus, tate = (functor_model(w, flavor, -12, 12) for flavor in (PLUS, MINUS, TATE))
    nd = NormData(plus, minus)
    assert nd.cone_matches_tate(tate)
    tate.complex.add_generator(0, ColGen(9, "extra"))
    assert not nd.cone_matches_tate(tate)


def test_exact_triangle_refuses_models_of_another_range_or_source():
    w = build_model(T_STAR, BAR).window(Window(-9, 15, -8, 18))
    plus, minus, tate = (functor_model(w, flavor, -12, 12) for flavor in (PLUS, MINUS, TATE))
    other = build_model(T_STAR, BAR).window(Window(-9, 15, -8, 18))
    for bad in (functor_model(w, PLUS, -12, 8), functor_model(other, PLUS, -12, 12)):
        with pytest.raises(BPFloerError):
            exact_triangle_check(bad, minus, tate, range(-3, 8))
    with pytest.raises(BPFloerError):
        exact_triangle_check(plus, minus, functor_model(w, TATE, -8, 12), range(-3, 8))


def test_triangle_single_orbit_cases():
    # free orbit: the tate side vanishes identically
    cx, u = single_orbit_complex(IRREDUCIBLE, 0, 3)
    plus = FunctorModel(cx, u, PLUS, -12, 12)
    minus = FunctorModel(cx, u, MINUS, -12, 12)
    tate = FunctorModel(cx, u, TATE, -12, 12)
    assert all(tate.homology().dim(n) == 0 for n in range(-8, 9))
    # point orbit: H(nu) = 0 and dims add up in the interior
    cx, u = single_orbit_complex(FULLY_REDUCIBLE, 0, 3)
    plus = FunctorModel(cx, u, PLUS, -12, 12)
    minus = FunctorModel(cx, u, MINUS, -12, 12)
    tate = FunctorModel(cx, u, TATE, -12, 12)
    hp, hm, ht = plus.homology(), minus.homology(), tate.homology()
    for n in range(-8, 9):
        assert ht.dim(n) == hm.dim(n) + hp.dim(n - 4)


def test_long_exact_sequence_with_framed_homology():
    # from 0 -> M -> D+ -(U)-> D+[4] -> 0:
    # dim H(M)_m = dim coker(U: H+_{m+1} -> H+_{m-3}) + dim ker(U: H+_m -> H+_{m-4})
    for g in (T_STAR, O_STAR, binary_dihedral(4)):
        model = build_model(g, BAR)
        w = model.window(Window(-13, 11, -12, 14))
        fm = functor_model(w, PLUS, -16, 12)
        hp = fm.homology()
        hsrc = HomologyData(w.complex)
        for m in range(-6, 6):
            rank_up = induced_rank(hp, hp, u_power_columns(fm, m + 1, 1), m + 1, m - 3)
            coker = hp.dim(m - 3) - rank_up
            rank_um = induced_rank(hp, hp, u_power_columns(fm, m, 1), m, m - 4)
            ker = hp.dim(m) - rank_um
            assert hsrc.dim(m) == coker + ker, (str(g), m)


# ---------------------------------------------------------------------------
# The U-adic reduction


def planted_complex(rng, field):
    """A random direct sum of elementary complexes F[U]x -> U^k F[U]y
    (k = 0..4) and free generators, conjugated by random elementary basis
    changes a -> a + c U^j b (deg b = deg a + 4j, j >= 0), each invertible
    and homogeneous: the column of a gains c times the column of b, and the
    row of b loses c times the row of a.  Returns (degrees, differential,
    planted (deg y, k) for k >= 1, planted free degrees)."""
    degrees, cols, bars, free = {}, {}, [], []
    for i in range(rng.randint(1, 12)):
        d, k = rng.randint(-6, 6), rng.randint(0, 4)
        x, y = ("x", i), ("y", i)
        degrees[x], degrees[y] = d, d - 1 + 4 * k
        cols[x], cols[y] = {y: field.of(rng.choice([1, -1, 2, -2]))}, {}
        if k:
            bars.append((d - 1 + 4 * k, k))
    for i in range(rng.randint(0, 5)):
        z = ("z", i)
        degrees[z], cols[z] = rng.randint(-6, 6), {}
        free.append(degrees[z])
    gens = list(degrees)
    rng.shuffle(gens)
    degrees = {g: degrees[g] for g in gens}
    for _ in range(3 * len(gens)):
        a, b = rng.sample(gens, 2)
        if degrees[b] < degrees[a] or (degrees[b] - degrees[a]) % 4:
            continue
        c = field.of(rng.choice([1, -1, 2, -2, 3]))
        for t, v in cols[b].items():
            cols[a][t] = field.add(cols[a].get(t, field.zero), field.mul(c, v))
        for col in cols.values():
            if a in col:
                col[b] = field.sub(col.get(b, field.zero), field.mul(c, col[a]))
        for col in cols.values():
            for t in [t for t, v in col.items() if field.is_zero(v)]:
                del col[t]
    return degrees, cols, sorted(bars), sorted(free)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)], ids=lambda f: f.name)
def test_reduction_recovers_planted_bars(field):
    # the normal form over F[U] is unique: the torsion summands F[U]/U^k at
    # deg y and the free generators' degrees do not depend on the basis
    rng = random.Random(30 + field.char)
    mixed = 0
    for _ in range(80):
        degrees, cols, bars, free = planted_complex(rng, field)
        mixed += any(cols[t] for col in cols.values() for t in col)  # D^2 terms to check
        red = UReduction(field, degrees, cols)
        got = sorted((red.degrees[y], k) for _, y, k in red.pairs if k)
        assert got == bars
        assert sorted(red.degrees[z] for z in red.free) == free
        assert all(red.degrees[y] - red.degrees[x] == 4 * k - 1 for x, y, k in red.pairs)
    assert mixed > 10


def test_reduction_rejects_an_entry_of_no_u_power():
    with pytest.raises(BPFloerError, match=r"'a' -> 'b': U-power \(0 - 0 \+ 1\)/4 is not an "
                                           r"integer"):
        UReduction(QQ, {"a": 0, "b": 0}, {"a": {"b": 1}})
    with pytest.raises(BPFloerError, match=r"'a' -> 'b': U-power \(-5 - 0 \+ 1\)/4 is negative"):
        UReduction(QQ, {"a": 0, "b": -5}, {"a": {"b": 1}})


def test_reduction_rejects_a_differential_that_does_not_square_to_zero():
    # a -> b -> c with D^2 a = c: whichever entry is eliminated first, the
    # basis that splits it off leaves the other one standing
    with pytest.raises(BPFloerError, match="leaves an entry: D\\^2 'a' has an entry on 'c'"):
        UReduction(QQ, {"a": 2, "b": 1, "c": 0}, {"a": {"b": 1}, "b": {"c": 1}})
    # a -> b and a' -> b' with U^1 b' -> c: here D^2 a' = U c
    with pytest.raises(BPFloerError, match="D does not square to zero"):
        UReduction(PrimeField(5), {"a": 2, "b": 1, "c": 4},
                   {"a": {"b": 1}, "b": {"c": 2}})
    # the same shapes with D^2 = 0 reduce
    red = UReduction(QQ, {"a": 2, "b": 1, "c": 1, "d": 0},
                     {"a": {"b": 1, "c": -1}, "b": {"d": 1}, "c": {"d": 1}})
    assert red.counts() == (4, 2, 0, 0)


@pytest.mark.parametrize("g", [T_STAR, binary_dihedral(7)], ids=str)
def test_reduction_flavors_are_the_totalized_homology(g):
    # each flavor's bars against the homology of its totalization, in every
    # degree strictly inside the totalized range (its end degrees are
    # truncated: every chain of the lowest degree is a cycle, and nothing
    # bounds into the highest)
    win = Window(-13, 11, -12, 12)
    for orientation in (BAR, STD):
        w = build_model(g, orientation).window(win.source)
        red = u_reduction(w)
        assert red.counts()[0] == w.complex.total_dim()
        for flavor in (PLUS, MINUS, TATE):
            bars = red.bar_window(flavor, win.n_lo, win.n_hi)
            h = functor_model(w, flavor, win.n_lo, win.n_hi).homology()
            for n in range(win.n_lo + 1, win.n_hi):
                assert bars.dim(n) == h.dim(n), (orientation, flavor, n)
