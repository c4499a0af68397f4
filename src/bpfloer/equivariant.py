"""Double-complex models for the three equivariant chain functors over the
exterior algebra on one degree-3 generator, the norm map and the check that
its cone is the Tate model, the cone triangle read from dims alone, a
literal bar-construction oracle, orbit-homology calculators, and the U-adic
reduction of a source window, from which the chain route reads all three
flavors as bars.

One code path materializes all three flavors: the double complex has columns
p (p >= 0 for '+', p <= 0 for '-', all p for 'inf'), column p carrying the
source shifted by 4p, horizontal differential (-1)^(n+1) u and vertical
differential the source boundary.  On finite sources all totalizations
coincide degreewise, so the flavor only selects the column range.
"""
from __future__ import annotations

import heapq
from typing import NamedTuple

from .chains import ChainMap, FiniteComplex, HomologyData
from .donaldson import WindowedComplex
from .errors import BPFloerError, OracleMismatch, TriangleViolation
from .groups import FULLY_REDUCIBLE, IRREDUCIBLE, ORBITS
from .presented import FINITE, PI8, PIINF8, BarWindow, Family, PresentedModule
from .sparse import _apply_columns

PLUS = "+"
MINUS = "-"
TATE = "inf"


class ColGen(NamedTuple):
    """Column-p copy of a source generator."""

    p: int
    gen: object

    def __repr__(self):
        return "(p=%d)%r" % (self.p, self.gen)


class FunctorModel:
    """Materialized totalization of one flavor over a degree range."""

    def __init__(self, source_complex: FiniteComplex, source_u: ChainMap, flavor, deg_lo, deg_hi):
        if flavor not in (PLUS, MINUS, TATE):
            raise BPFloerError("flavor must be '+', '-' or 'inf'")
        self.flavor = flavor
        self.source = source_complex
        self.source_u = source_u
        f = source_complex.field
        src_degrees = source_complex.degrees()
        self.deg_lo, self.deg_hi = deg_lo, deg_hi
        cx = FiniteComplex(f)
        start = {}  # (n, p) -> position of column p's first generator in degree n
        for n in range(deg_lo, deg_hi + 1):
            basis, levels = [], []
            for d in src_degrees:
                p, rem = divmod(n - d, 4)
                if rem or (flavor == PLUS and p < 0) or (flavor == MINUS and p > 0):
                    continue
                start[n, p] = len(basis)
                basis += [ColGen(p, g) for g in source_complex.basis[d]]
                levels += source_complex.levels[d]
            if basis:
                cx.basis[n], cx.levels[n] = basis, levels
                cx.index[n] = {lab: i for i, lab in enumerate(basis)}
                cx.boundary[n] = [None] * len(basis)  # every column is set below
        # Generator i of column p in degree n: its boundary is the source
        # boundary moved into block (n-1, p) plus (-1)^(n+1) u moved into
        # block (n-1, p-1), and U sends it to i in block (n-4, p-1).
        u = ChainMap(cx, cx, -4)
        for n, gens in cx.basis.items():
            u.columns[n] = [{} for _ in gens]
        for (n, p), at in start.items():
            d = n - 4 * p
            down, left = start.get((n - 1, p)), start.get((n - 1, p - 1))
            u_at = start.get((n - 4, p - 1))
            sgn = f.of(1 if (n + 1) % 2 == 0 else -1)
            bcols, ucols = cx.boundary[n], u.columns[n]
            for i, scol in enumerate(source_complex.boundary_columns(d)):
                col = {} if down is None else {down + r: v for r, v in scol.items()}
                if left is not None:
                    for r, v in source_u.column(d, i).items():
                        col[left + r] = f.mul(sgn, v)
                bcols[at + i] = col
                if u_at is not None:
                    ucols[at + i] = {u_at + i: f.one}
        self.complex = cx
        self.u = u
        self._homology = None

    def homology(self) -> HomologyData:
        if self._homology is None:
            self._homology = HomologyData(self.complex)
        return self._homology


def functor_model(window: WindowedComplex, flavor, deg_lo, deg_hi) -> FunctorModel:
    return FunctorModel(window.complex, window.u, flavor, deg_lo, deg_hi)


# ---------------------------------------------------------------------------
# One U-adic reduction per source window, read as bars.


class UReduction:
    """The U-adic reduction of a free graded F[U]-complex, and its bars.

    The complex has one F[U] generator per key of degrees (a dict generator
    -> degree, whose order breaks ties) and D x = sum of c * U^k y over the
    entries {y: c} of differential[x], U of degree -4.  An entry is stored
    as the constant c: D has degree -1, so k = (deg y - deg x + 1)/4, and an
    entry where that is negative or not an integer raises BPFloerError.

    One elimination loop pivots on an entry x -> y of least k, among those
    of least Markowitz cost (|column x| - 1)(|row y| - 1), then generator
    order; the cost is the one at the last push, and an entry whose cost
    has changed goes back on the heap with the new one when it comes up.
    Every entry of y's row and x's column has power at least k, so the Schur
    complement on them stays homogeneous; x and y then split off as
    F[U]x -> U^k F[U]y, recorded as the pair (x, y, k), and drop out.  k = 0
    pairs cancel (Bar-Natan, "Fast Khovanov homology computations", Lemma
    4.2); k >= 1 pairs are F[U]/U^k summands.  Splitting x and y off is
    valid only if, in the new basis, x's row and y's column vanish, that is
    D^2 x = 0 and the y-entries of D^2 vanish; each pivot checks both and
    raises BPFloerError naming the entry left, so a finished loop certifies
    D^2 = 0.  The generators left have zero differential: free towers.

    bar_window reads one flavor off the pairs and towers as bars, the
    normal form of Zomorodian-Carlsson ("Computing persistent homology",
    2005): flavor '-' is the complex itself, '+' its tensor with
    F[U, U^-1]/U F[U], 'inf' with F[U, U^-1].
    """

    def __init__(self, field, degrees, differential):
        self.field = field
        labels = list(degrees)
        index = {g: i for i, g in enumerate(labels)}
        deg = [degrees[g] for g in labels]
        self.labels, self.degrees = labels, deg
        cols = [{} for _ in labels]
        rows = [{} for _ in labels]
        for x, img in differential.items():
            i = index[x]
            for y, v in img.items():
                if field.is_zero(v):
                    continue
                j = index[y]
                k, rem = divmod(deg[j] - deg[i] + 1, 4)
                if rem or k < 0:
                    raise BPFloerError(
                        "entry %r -> %r: U-power (%d - %d + 1)/4 is %s" % (
                            x, y, deg[j], deg[i],
                            "not an integer" if rem else "negative"))
                cols[i][j] = rows[j][i] = v
        self.pairs = []  # (x, y, k) as generator positions, in elimination order
        self._eliminate_all(cols, rows)
        paired = {g for x, y, _ in self.pairs for g in (x, y)}
        self.free = [i for i in range(len(labels)) if i not in paired]

    def _eliminate_all(self, cols, rows):
        f, deg = self.field, self.degrees
        heap = [((deg[y] - deg[x] + 1) >> 2, (len(col) - 1) * (len(rows[y]) - 1), x, y)
                for x, col in enumerate(cols) for y in col]
        heapq.heapify(heap)
        while heap:
            k, cost, x, y = heapq.heappop(heap)
            col_x = cols[x]
            if y not in col_x:  # cancelled, or x or y gone
                continue
            row_y = rows[y]
            now = (len(col_x) - 1) * (len(row_y) - 1)
            if now != cost:
                heapq.heappush(heap, (k, now, x, y))
                continue
            self._check_square(x, y, cols, rows)
            c_inv = f.inv(col_x[y])
            for t in col_x:
                del rows[t][x]
            for u in row_y:
                del cols[u][y]
            for v in rows[x]:
                del cols[v][x]
            for z in cols[y]:
                del rows[z][y]
            cols[x], rows[x], cols[y], rows[y] = {}, {}, {}, {}
            # Schur complement: u -> t loses (u -> y)(x -> t)/(x -> y)
            for u, a in row_y.items():
                if u == x:
                    continue
                m = f.neg(f.mul(a, c_inv))
                col_u = cols[u]
                for t, b in col_x.items():
                    if t == y:
                        continue
                    old = col_u.get(t)
                    new = f.mul(m, b) if old is None else f.add(old, f.mul(m, b))
                    if f.is_zero(new):
                        del col_u[t], rows[t][u]
                        continue
                    col_u[t] = rows[t][u] = new
                    if old is None:
                        heapq.heappush(heap, ((deg[t] - deg[u] + 1) >> 2,
                                              (len(col_u) - 1) * (len(rows[t]) - 1), u, t))
            self.pairs.append((x, y, k))

    def _check_square(self, x, y, cols, rows):
        """x's row and y's column in the basis that splits x -> y off are the
        y-entries of D^2 and D^2 x, over (x -> y): both must vanish."""
        f, lab = self.field, self.labels
        for start, step in ((cols[x], cols), (rows[y], rows)):
            acc = {}
            for mid, a in start.items():
                for end, b in step[mid].items():
                    acc[end] = f.add(acc.get(end, f.zero), f.mul(a, b))
            for end, v in acc.items():
                if not f.is_zero(v):
                    src, tgt = (x, end) if step is cols else (end, y)
                    raise BPFloerError(
                        "eliminating %r -> %r leaves an entry: D^2 %r has an entry on %r, "
                        "so D does not square to zero" % (lab[x], lab[y], lab[src], lab[tgt]))

    def counts(self):
        """(generators, cancelled pairs, bars, free towers)."""
        cancelled = sum(1 for _, _, k in self.pairs if k == 0)
        return len(self.labels), cancelled, len(self.pairs) - cancelled, len(self.free)

    def describe(self):
        return "%d generators, %d cancelled, %d bars, %d towers" % self.counts()

    def bar_window(self, flavor, n_lo, n_hi) -> BarWindow:
        """One flavor's homology on the degrees [n_lo, n_hi] as bars.

        A pair (x, y, k >= 1) gives for '-' the bar deg y, deg y - 4, ...,
        deg y - 4(k-1), for '+' the bar deg x, deg x + 4, ...,
        deg x + 4(k-1), and nothing for 'inf'; a tower z gives the degrees
        deg z - 4j for '-', deg z + 4j for '+' (j >= 0), and its whole
        residue class mod 4 for 'inf'.  Each bar is cut to [n_lo, n_hi].
        """
        if flavor not in (PLUS, MINUS, TATE):
            raise BPFloerError("flavor must be '+', '-' or 'inf'")
        deg, bars = self.degrees, []

        def cut(lo, hi, r):  # None: the bar does not end on that side
            lo = n_lo + (r - n_lo) % 4 if lo is None or lo < n_lo else lo
            hi = n_hi - (n_hi - r) % 4 if hi is None or hi > n_hi else hi
            if lo <= hi:
                bars.append((lo, hi))

        if flavor != TATE:
            for x, y, k in self.pairs:
                if k:
                    lo = deg[y] - 4 * (k - 1) if flavor == MINUS else deg[x]
                    cut(lo, lo + 4 * (k - 1), lo)
        for z in self.free:
            d = deg[z]
            cut(d if flavor == PLUS else None, d if flavor == MINUS else None, d)
        return BarWindow(bars, n_lo, n_hi)


def u_reduction(window: WindowedComplex) -> UReduction:
    """The reduction of the window's free F[U]-complex: D x = d x +
    (-1)^(deg x + 1) U u(x), FunctorModel's sign (its degree n is
    deg x + 4p), so every flavor's model is this complex tensored over F[U]."""
    cx, u, f = window.complex, window.u, window.field
    degrees, differential = {}, {}
    for d in cx.degrees():
        sgn = f.of(1 if d % 2 else -1)
        down, up = cx.basis.get(d - 1, ()), cx.basis.get(d + 3, ())
        for i, g in enumerate(cx.basis[d]):
            degrees[g] = d
            img = {down[r]: v for r, v in cx.boundary_columns(d)[i].items()}
            for r, v in u.column(d, i).items():
                img[up[r]] = f.mul(sgn, v)
            differential[g] = img
    return UReduction(f, degrees, differential)


def orbit_homology(kind, flavor) -> PresentedModule:
    """Closed-form equivariant homology of a single critical orbit at level 0.

    The family carries the orbit's letter (groups.ORBITS).  A point orbit
    gives a step-4 tower and a two-sphere a step-2 tower (upward for '+',
    downward for '-', Laurent for 'inf'); a free orbit gives one class for
    '+' and '-' and nothing for 'inf'.  A '-' family sits at the top
    t = delta of its orbit, the others at t = 0.  theorems.py places one
    copy per flat connection to build the product-type closed forms.
    """
    orbit = ORBITS[kind]
    letter = orbit.letter(flavor)
    if letter is None:
        return PresentedModule(FINITE, [])
    top = orbit.delta if flavor == MINUS else 0
    if kind == IRREDUCIBLE:
        return PresentedModule(FINITE, [Family(letter, top, 0, 0, 0, 0)], {(letter, 0): []})
    step = 4 if kind == FULLY_REDUCIBLE else 2
    if flavor == PLUS:
        return PresentedModule(PI8, [Family(letter, top, step, 0)])
    if flavor == MINUS:
        return PresentedModule(PI8, [Family(letter, top, -step, 0)])
    return PresentedModule(PIINF8, [Family(letter, top, -step, 0, None)])


# ---------------------------------------------------------------------------
# Literal bar-construction oracle.


class BarComplexes:
    """Literal bar-side complexes for the two uncompleted flavors.

    '+' is the two-sided bar construction with trivial right coefficients;
    '-' is the complex of linear functionals on the reduced-letter basis of
    the resolution.  Differentials and the degree -4 action are derived from
    the generic simplicial/internal formulas specialized to a single
    degree-3 exterior letter.
    """

    def __init__(self, window: WindowedComplex, flavor, deg_lo, deg_hi):
        if flavor not in (PLUS, MINUS):
            raise BPFloerError("bar oracle covers flavors '+' and '-' only")
        self.flavor = flavor
        src = window.complex
        u = window.u
        field = src.field
        src_degrees = src.degrees()
        self.deg_lo, self.deg_hi = deg_lo, deg_hi
        cx = FiniteComplex(field)
        for n in range(deg_lo, deg_hi + 1):
            for d in src_degrees:
                if flavor == PLUS:
                    # m [u|...|u], p letters: total degree |m| + 4p, p >= 0
                    p4 = n - d
                else:
                    # value slot at [u|...|u] with p letters: m of degree n + 4p
                    p4 = d - n
                if p4 < 0 or p4 % 4:
                    continue
                p = p4 // 4
                for i, g in enumerate(src.basis[d]):
                    cx.add_generator(n, ColGen(p, g), level=src.levels[d][i])
        f = field
        for n in range(deg_lo, deg_hi + 1):
            for cg in cx.basis.get(n, []):
                p = cg.p
                if flavor == PLUS:
                    d = n - 4 * p
                    pos = src.index[d][cg.gen]
                    img = {}
                    sgn = f.of(1 if p % 2 == 0 else -1)
                    for row, v in src.boundary_columns(d)[pos].items():
                        img[ColGen(p, src.basis[d - 1][row])] = f.mul(sgn, v)
                    if p >= 1:
                        for row, v in u.column(d, pos).items():
                            tgt = ColGen(p - 1, src.basis[d + 3][row])
                            img[tgt] = f.add(img.get(tgt, f.zero), v)
                else:
                    d = n + 4 * p
                    pos = src.index[d][cg.gen]
                    img = {}
                    for row, v in src.boundary_columns(d)[pos].items():
                        img[ColGen(p, src.basis[d - 1][row])] = v
                    # the letter-sequence boundary contributes at slot p+1
                    sgn = f.of(1 if (n + p) % 2 == 0 else -1)
                    for row, v in u.column(d, pos).items():
                        tgt = ColGen(p + 1, src.basis[d + 3][row])
                        img[tgt] = f.add(img.get(tgt, f.zero), f.mul(sgn, v))
                cx.set_boundary(n, cg, img)
        self.complex = cx
        uu = ChainMap(cx, cx, -4)
        for n in range(deg_lo, deg_hi + 1):
            for cg in cx.basis.get(n, []):
                p = cg.p
                if flavor == PLUS:
                    d = n - 4 * p
                    img = {}
                    if p >= 1:
                        sgn = 1 if (d + p) % 2 == 0 else -1
                        img[ColGen(p - 1, cg.gen)] = sgn
                else:
                    sgn = 1 if (p + 1) % 2 == 0 else -1
                    img = {ColGen(p + 1, cg.gen): sgn}
                uu.set_image(n, cg, img)
        self.u = uu

    def sign_iso(self, model: FunctorModel) -> ChainMap:
        """The diagonal sign map identifying the model with the bar side."""
        iso = ChainMap(model.complex, self.complex, 0)
        for n in model.complex.degrees():
            for cg in model.complex.basis[n]:
                if self.flavor == PLUS:
                    p = cg.p
                    e = (p * n + p * (p + 1) // 2) % 2
                    tgt = ColGen(p, cg.gen)
                else:
                    p = -cg.p
                    e = (p * (p + 1) // 2) % 2
                    tgt = ColGen(p, cg.gen)
                iso.set_image(n, cg, {tgt: 1 if e == 0 else -1})
        return iso


def bar_oracle(window: WindowedComplex, flavor, deg_lo, deg_hi):
    """Build the literal bar complexes and verify the sign isomorphism.

    In every degree the two complexes must have equal dimensions and iso must
    send each model generator to its own bar generator with sign +-1, and
    both squares (d and the degree -4 action) must commute.  Together these
    make iso a chain isomorphism, so the two homologies agree without being
    computed.  Returns (bar, model, iso); raises OracleMismatch naming the
    first offending degree or generator.
    """
    bar = BarComplexes(window, flavor, deg_lo, deg_hi)
    model = FunctorModel(window.complex, window.u, flavor, deg_lo, deg_hi)
    iso = bar.sign_iso(model)
    f = model.complex.field
    signs = (f.of(1), f.of(-1))
    for n in sorted(set(model.complex.degrees()) | set(bar.complex.degrees())):
        if model.complex.dim(n) != bar.complex.dim(n):
            raise OracleMismatch("degree %d has %d model and %d bar generators"
                                 % (n, model.complex.dim(n), bar.complex.dim(n)))
        targets = set()
        for pos, cg in enumerate(model.complex.basis.get(n, [])):
            col = iso.column(n, pos)
            if len(col) != 1 or col.keys() & targets or next(iter(col.values())) not in signs:
                raise OracleMismatch("iso does not send %r in degree %d to its own "
                                     "bar generator with sign +-1" % (cg, n))
            targets |= col.keys()
            lhs = _apply_columns(f, bar.complex.boundary_columns(n), col)
            rhs = iso.apply(n - 1, model.complex.boundary_columns(n)[pos])
            if lhs != rhs:
                raise OracleMismatch("differential square fails at %r in degree %d" % (cg, n))
            if n - 4 >= deg_lo:
                lhs = bar.u.apply(n, col)
                rhs = iso.apply(n - 4, model.u.column(n, pos))
                if lhs != rhs:
                    raise OracleMismatch("degree -4 action square fails at %r in degree %d" % (cg, n))
    return bar, model, iso


# ---------------------------------------------------------------------------
# Norm map, cone = Tate, the cone triangle.


class NormData:
    """The degree-3 composite nu from the '+' to the '-' model, and the
    degree-0 homotopy psi_s witnessing its commutation with the degree -4
    action up to homotopy, which adjusts the action on its cone."""

    def __init__(self, plus: FunctorModel, minus: FunctorModel):
        if plus.flavor != PLUS or minus.flavor != MINUS:
            raise BPFloerError("norm data needs a '+' and a '-' model")
        self.plus, self.minus = plus, minus
        f = plus.complex.field
        src = plus.source
        nu = ChainMap(plus.complex, minus.complex, 3)
        psi_s = ChainMap(plus.complex, minus.complex, 0)
        for n in plus.complex.degrees():
            sgn = f.of(1 if n % 2 == 0 else -1)
            for cg in plus.complex.basis[n]:
                if cg.p != 0:
                    continue
                pos = src.index[n][cg.gen]
                nu.set_image(n, cg, {ColGen(0, src.basis[n + 3][row]): f.mul(sgn, v)
                                     for row, v in plus.source_u.column(n, pos).items()})
                psi_s.set_image(n, cg, {ColGen(0, cg.gen): 1})
        self.nu = nu
        self.psi_s = psi_s

    def check_chain_map(self):
        """nu d = -d nu on the overlap of the materialized ranges."""
        return self.nu.is_chain_map(sign=-1)

    def check_homotopy(self):
        """nu U - U nu = d psi_s - psi_s d, away from the degree cutoffs."""
        f = self.plus.complex.field
        minus_one = f.neg(f.one)
        lo = max(self.plus.deg_lo, self.minus.deg_lo)
        hi = min(self.plus.deg_hi, self.minus.deg_hi)
        for n in self.plus.complex.degrees():
            if not (lo + 4 <= n <= hi - 4):
                continue
            for pos in range(self.plus.complex.dim(n)):
                start = {pos: f.one}
                a = self.nu.apply(n - 4, self.plus.u.apply(n, start))   # nu U
                b = self.minus.u.apply(n + 3, self.nu.apply(n, start))  # U nu
                c = _apply_columns(f, self.minus.complex.boundary_columns(n),
                                   self.psi_s.apply(n, start))
                d = self.psi_s.apply(n - 1, self.plus.complex.boundary_columns(n)[pos])
                # (a - b) - (c - d)
                if _apply_columns(f, [a, b, c, d], {0: f.one, 1: minus_one, 2: minus_one, 3: f.one}):
                    return False
        return True

    def cone_matches_tate(self, tate: FunctorModel):
        """cone(nu) is the flavor-'inf' model on the degrees [lo, hi] where
        both are materialized: the '-' part sits in columns p <= 0 and the
        '+' part, one column up, in p >= 1, with differential d on the '-'
        part and d - nu on the '+' part, and action U on the '-' part and
        U + psi_s on the '+' part.  Checks that the Tate basis is the cone
        basis in each degree of [lo, hi], and that the Tate columns equal the
        cone formula: the differential out of each degree above lo, the
        action out of each degree from lo + 4."""
        m, p, t = self.minus, self.plus, tate
        f = t.complex.field
        lo = max(m.deg_lo, p.deg_lo + 4, t.deg_lo)
        hi = min(m.deg_hi, p.deg_hi + 4, t.deg_hi)
        # degree n -> the Tate position of each '-' generator of degree n,
        # and of each '+' generator of degree n - 4 moved one column up
        at_m, at_p = {}, {}
        for n in range(lo, hi + 1):
            index = t.complex.index.get(n, {})
            at_m[n] = [index.get(cg) for cg in m.complex.basis.get(n, ())]
            at_p[n] = [index.get(ColGen(cg.p + 1, cg.gen)) for cg in p.complex.basis.get(n - 4, ())]
            cone = at_m[n] + at_p[n]
            if None in cone or len(cone) != len(index):
                return False

        def moved(col, at, sign=f.one):
            return {at[r]: f.mul(sign, v) for r, v in col.items()}

        minus_one = f.neg(f.one)
        for n in range(lo + 1, hi + 1):
            d, act = t.complex.boundary_columns(n), n - 4 >= lo
            for pos, at in enumerate(at_m[n]):
                if d[at] != moved(m.complex.boundary_columns(n)[pos], at_m[n - 1]):
                    return False
                if act and t.u.column(n, at) != moved(m.u.column(n, pos), at_m[n - 4]):
                    return False
            for pos, at in enumerate(at_p[n]):
                if d[at] != {**moved(p.complex.boundary_columns(n - 4)[pos], at_p[n - 1]),
                             **moved(self.nu.column(n - 4, pos), at_m[n - 1], minus_one)}:
                    return False
                if act and t.u.column(n, at) != {**moved(p.u.column(n - 4, pos), at_p[n - 4]),
                                                 **moved(self.psi_s.column(n - 4, pos), at_m[n - 4])}:
                    return False
        return True


def exact_triangle_check(plus: FunctorModel, minus: FunctorModel, tate: FunctorModel, degrees):
    """Verify the cone long exact sequence of the norm map nu on the flavor
    models of one source complex and degree range [lo, hi].

    nu must be a chain map and cone(nu) the Tate model (NormData), or
    TriangleViolation is raised.  Then the sequence (Weibel, 1.5) gives
        dim Hinf_n = dim Hminus_n + dim Hplus_{n-4} - r_{n-3} - r_{n-4},
    r_d the rank of H(nu) out of Hplus_d, on each n in degrees with
    lo + 5 <= n <= hi - 1, where the truncated complexes and the cone agree
    with the Tate model from n - 1 to n + 1 and Hplus_{n-4} is above lo; the
    other degrees are flagged.  Returns {"checked", "flagged_boundary",
    "norm_rank", "span", "nu_generators", "cone_generators"}: norm_rank is
    the sum of r_{n-3} + r_{n-4} over the checked n, a negative term raising
    TriangleViolation; span is (lo, hi), nu_generators the number of '+'
    generators on which nu was checked, cone_generators that of the Tate
    generators of [lo + 4, hi] compared with the cone.
    """
    models = (plus, minus, tate)
    if ([m.flavor for m in models] != [PLUS, MINUS, TATE]
            or len({(id(m.source), m.deg_lo, m.deg_hi) for m in models}) > 1):
        raise BPFloerError("the triangle needs '+', '-' and 'inf' models of one source "
                           "complex and degree range")
    norm = NormData(plus, minus)
    if not norm.check_chain_map():
        raise TriangleViolation("nu is not a chain map")
    if not norm.cone_matches_tate(tate):
        raise TriangleViolation("cone(nu) is not the Tate model")
    lo, hi = tate.deg_lo, tate.deg_hi
    report = {"checked": [], "flagged_boundary": [], "norm_rank": 0, "span": (lo, hi),
              "nu_generators": plus.complex.total_dim(),
              "cone_generators": sum(tate.complex.dim(n) for n in range(lo + 4, hi + 1))}
    hp, hm, ht = plus.homology(), minus.homology(), tate.homology()
    for n in degrees:
        if not lo + 5 <= n <= hi - 1:
            report["flagged_boundary"].append(n)
            continue
        ranks = hm.dim(n) + hp.dim(n - 4) - ht.dim(n)
        if ranks < 0:
            raise TriangleViolation("degree %d: dim Hinf = %d exceeds dim Hminus + dim "
                                    "Hplus[-4] = %d + %d" % (n, ht.dim(n), hm.dim(n), hp.dim(n - 4)))
        report["checked"].append(n)
        report["norm_rank"] += ranks
    return report
