"""Index spectral sequence engine, extension assembly, and comparisons.

For the reversed orientation and the '-' flavor the only possibly nonzero
differentials go from the tower levels t = -4(r-1) into the t = 3 line; the
page-r matrix is the weighted walk matrix (boundary composed with the
(r-1)-st power of the degree -4 endomorphism) followed by the projection to
the surviving quotient.  Degeneration is reached when both t = 3 lines die.

The page engine derives the (bar, -) module; its dual (PresentedModule.dual)
is the (std, +) module.  The other four (orientation, flavor) pairs have no
page derivation here: their closed forms live only in theorems.py, and the
chain route checks them.  A GroupRun is the one handle on a group's shared
computations over one field: the (bar, -) pages, the comparison window they
size, the assembled modules and each orientation's U-adic reduction of a
source window.  pair_reports checks every pair on it against the chain
route, the pair's bars read off the reduction of its orientation, and
(bar, -) also against the page route.  norm_vanishing_and_splitting builds
the cone triangle's source window and its three flavor models itself, once
per call.  direct_homology_window is the one-shot chain route on a fresh
GroupRun.
"""
from __future__ import annotations

from .chains import FilteredPages
from .donaldson import BAR, STD, DonaldsonModel, Gen, Window, WindowedComplex, build_model
from .equivariant import (
    MINUS,
    PLUS,
    TATE,
    UReduction,
    exact_triangle_check,
    functor_model,
    u_reduction,
)
from .errors import (
    BPFloerError,
    FreenessFailure,
    NonDegeneration,
    SplittingViolation,
    WrongFlavor,
)
from .fields import QQ
from .groups import IRREDUCIBLE, ORBITS
from .presented import (
    MIN_CHECKED_DEGREES,
    OPLUS8,
    BarWindow,
    Family,
    ModuleWindow,
    PresentedModule,
    compare_windows,
)
from .sparse import TrackedEchelon
from .theorems import encoded_module


class MinusPages:
    """Page data of the '-' index spectral sequence (reversed orientation)."""

    def __init__(self, model: DonaldsonModel, field=QQ):
        if model.orientation != BAR:
            raise WrongFlavor("the '-' page engine runs on the reversed orientation")
        self.model = model
        self.field = field
        sg = model.sgraph
        self.tower_gens = {0: [], 4: []}   # f.red 'U' and red 'Z' tower names
        self.h_basis = {0: [], 4: []}
        for v in sg.vertices:
            s = model.base_level(v.name) % 8
            if v.kind == IRREDUCIBLE:
                self.h_basis[s].append(v.name)
            else:
                self.tower_gens[s].append((ORBITS[v.kind].minus, v.name))
        # walk matrices on the vertex space; the same coefficients give the
        # boundary into the t-line
        names = [v.name for v in sg.vertices]
        self.psi = {
            w: {v: sg.label(w, v) for v in names if sg.label(w, v)}
            for w in names
            if sg.vertex(w).kind == IRREDUCIBLE
        }
        # quotient bookkeeping at t = 3 per column
        self.b_echelon = {0: TrackedEchelon(field), 4: TrackedEchelon(field)}
        self.kernels = {0: [], 4: []}       # kernels[col][r-1] = list of vectors
        self.degeneration_page = 1
        self.r_last = 0
        self._run()

    def _h_index(self, col):
        return {name: i for i, name in enumerate(self.h_basis[col])}

    def _psi_power_column(self, v, r):
        """Coefficients of psi^r applied to the vertex basis element v."""
        vec = {v: 1}
        for _ in range(r):
            nxt = {}
            for w, c in vec.items():
                for tgt, n in self.psi.items():
                    if w in n:
                        nxt[tgt] = nxt.get(tgt, 0) + c * n[w]
            vec = nxt
        return vec

    def d_value(self, r, col_src, gen):
        """Pre-quotient value of the page-4r differential on a tower generator.

        Returns a vector over the h-basis of the target column; Z towers feed
        the same walk formula as U towers.
        """
        _, vname = gen
        hidx = self._h_index((col_src - 4 * r) % 8)
        f = self.field
        walk = self._psi_power_column(vname, r)
        return {hidx[w]: f.of(c) for w, c in walk.items()
                if w in hidx and not f.is_zero(f.of(c))}

    def _run(self):
        f = self.field
        guard = len(self.model.sgraph.vertices) + 3
        r = 1
        while True:
            alive = {c: len(self.h_basis[c]) - self.b_echelon[c].rank for c in (0, 4)}
            if alive[0] == 0 and alive[4] == 0:
                break
            if r > guard:
                raise NonDegeneration("no degeneration after %d pages" % r)
            fired = False
            new_images = {0: [], 4: []}
            kernels = {}
            for col in (0, 4):
                gens = self.tower_gens[col]
                col_tgt = (col - 4 * r) % 8
                cols = []
                for gen in gens:
                    val = self.d_value(r, col, gen)
                    residue, _ = self.b_echelon[col_tgt].reduce(val)
                    cols.append(residue)
                ker, pivots = TrackedEchelon(f).kernel_of_columns(cols)
                fired = fired or bool(pivots)
                new_images[col_tgt].extend(cols[j] for j in pivots)
                kernels[col] = ker
            for col in (0, 4):
                self.kernels[col].append(kernels[col])
                for img in new_images[col]:
                    self.b_echelon[col].insert(img)
            if fired:
                self.r_last = r
            r += 1
        # two stable buffer levels for the extension bookkeeping
        for _ in range(2):
            for col in (0, 4):
                full = [
                    {j: f.one} for j in range(len(self.tower_gens[col]))
                ]
                self.kernels[col].append(full)
        self.degeneration_page = 4 * self.r_last + 1 if self.r_last else 1

    def surviving_h(self, col):
        return len(self.h_basis[col]) - self.b_echelon[col].rank

    def kernel_space(self, col, r):
        """E-infinity tower level t = -4(r-1) of the column, r >= 1."""
        ks = self.kernels[col]
        if r <= len(ks):
            return ks[r - 1]
        return [{j: self.field.one} for j in range(len(self.tower_gens[col]))]

    def gen_label(self, col, r, vec):
        """Readable name of a kernel vector at tower level r (index k = r-1)."""
        f = self.field
        terms = []
        for j in sorted(vec):
            kind, vname = self.tower_gens[col][j]
            k = (r - 1) if kind == "U" else (2 * (r - 1) + 1)
            coef = vec[j]
            txt = "%s_%s^%d" % (kind, vname, k)
            if not f.is_zero(f.sub(coef, f.one)):
                txt = "%s*%s" % (coef, txt)
            terms.append(txt)
        return "+".join(terms).replace("+-", "-")


# ---------------------------------------------------------------------------
# Assembly of the closed-form answers.


def assemble_minus_bar(pages: MinusPages) -> PresentedModule:
    """Extension step for the '-' flavor: free towers on E-infinity columns."""
    f = pages.field
    fams = []
    for col in (0, 4):
        # Z-even towers: one generator Z^0 per reducible vertex of the column
        for kind, vname in pages.tower_gens[col]:
            if kind == "Z":
                label = "Z_%s^0" % vname
                fams.append(Family(label, col + 2, -4, col))
        # tower levels: new generators are a complement of the image of the
        # degree -4 action from the previous level; U acts by the identity on
        # coordinates, and the kernel vectors are independent, so the image
        # stays in the kernel exactly when prev and cur span len(cur)
        prev = []
        nlev = len(pages.kernels[col])
        for r in range(1, nlev + 1):
            cur = pages.kernel_space(col, r)
            ech = TrackedEchelon(f)
            for vec in prev:
                ech.insert(vec)
            for vec in cur:
                if ech.insert(vec) is not None:
                    label = pages.gen_label(col, r, vec)
                    fams.append(Family(label, col - 4 * (r - 1), -4, col))
            if ech.rank != len(cur):
                raise FreenessFailure("degree -4 image leaves the next kernel (column %d)" % col)
            prev = cur
    return PresentedModule(OPLUS8, fams)


# ---------------------------------------------------------------------------
# Comparison layer.


class GroupRun:
    """The computations that the comparison checks of one group share, over
    one field, each made once on first use.

    It holds each orientation's model, the (bar, -) page run and the
    comparison window it sets, the assembled modules, and each orientation's
    U-adic reduction of a source window, read straight off the model.  The
    chain route and floer-raw read all three flavors off the one reduction,
    which builds no window.  The cone triangle (verify's and floer-raw's) is
    the only reader of a materialized window and its flavor models, and it
    reads them once, so it builds them from GroupRun.model itself.  verify
    and the floer commands make one per group and drop it when the group is
    done.  The independent routes (bar_oracle, ss_accounting) build their
    own models, so that no cross-check compares an object with itself.
    """

    def __init__(self, group, field=QQ):
        self.group = group
        self.field = field
        self._models, self._assembled, self._reductions = {}, {}, {}
        self._pages = None

    def model(self, orientation) -> DonaldsonModel:
        if orientation not in self._models:
            self._models[orientation] = build_model(self.group, orientation)
        return self._models[orientation]

    @property
    def pages(self) -> MinusPages:
        """The (bar, -) page run."""
        if self._pages is None:
            self._pages = MinusPages(self.model(BAR), self.field)
        return self._pages

    def comparison_window(self):
        """(window, level margin) for comparing the group's modules against a
        closed form.

        A page-r differential connects levels 4r apart, so with r_last from the
        (bar, -) pages the level margin is 4*r_last + 4; the half-width
        12 + 4*r_last keeps window.interior(4, margin) at degrees -7..7.
        """
        r_last = self.pages.r_last
        h = 12 + 4 * r_last
        return Window(-h, h, -h, h), 4 * r_last + 4

    def assembled(self, orientation, flavor) -> PresentedModule:
        """The module the page engine derives: the reversed-orientation '-'
        flavor from the run's pages, and its dual, the standard-orientation
        '+' flavor."""
        key = orientation, flavor
        if key not in self._assembled:
            if key == (BAR, MINUS):
                self._assembled[key] = assemble_minus_bar(self.pages)
            elif key == (STD, PLUS):
                self._assembled[key] = self.assembled(BAR, MINUS).dual()
            else:
                raise WrongFlavor(
                    "no page derivation for (%s, %s): theorems.encoded_module gives the "
                    "closed form and direct_homology_window the chain-level route"
                    % (orientation, flavor)
                )
        return self._assembled[key]

    def reduction(self, orientation, source: Window) -> UReduction:
        """The U-adic reduction of the orientation's source window, read
        straight off the model (equivariant.u_reduction): no window is
        materialized."""
        key = orientation, source
        if key not in self._reductions:
            self._reductions[key] = u_reduction(self.model(orientation), source, self.field)
        return self._reductions[key]

    def homology_window(self, orientation, flavor, win: Window) -> BarWindow:
        """The flavor's window homology on win, as bars read off the reduction
        of win.source, on the degrees [win.n_lo, win.n_hi]."""
        return self.reduction(orientation, win.source).bar_window(flavor, win.n_lo, win.n_hi)


def duality_transpose_check(wstd: WindowedComplex):
    """Chain-level duality on a standard-orientation window: its differential
    is the transpose of the reversed-orientation differential under the
    pairing (vertex, t, level) <-> (vertex, delta - t, -level - delta)."""
    std = wstd.model
    if std.orientation != STD:
        raise WrongFlavor("the transposed duality reads a standard-orientation window")
    bar = build_model(std.group, BAR)
    sg = std.sgraph

    def partner(gen):
        delta = ORBITS[sg.vertex(gen.vertex).kind].delta
        return Gen(gen.vertex, delta - gen.t, -gen.level - delta)

    mism = []
    for gen in wstd.generators:
        img = std.differential(gen)
        for tgt, c in img.items():
            # transpose: bar differential of partner(tgt) hits partner(gen)
            back = bar.differential(partner(tgt))
            got = back.get(partner(gen), 0)
            if got != c:
                mism.append((gen, tgt, c, got))
    return mism


def direct_homology_window(group, orientation, flavor, win: Window, field=QQ):
    """The flavor's window homology as bars, from the reduction of win.source.

    Only the filtration truncation is active on the source; the requested
    degree range cuts the bars.  A one-shot GroupRun(group, field).homology_window.
    """
    return GroupRun(group, field).homology_window(orientation, flavor, win)


PAIRS = tuple((o, f) for o in (BAR, STD) for f in (MINUS, PLUS, TATE))


def pair_reports(run: GroupRun, orientation, flavor, win: Window, margin):
    """One pair's encoded closed form against every route independent of it,
    on win with the given level margin: [(route, CompareReport)].

    "pages" is the page-assembled module and runs for (bar, -) only; "chain"
    is the chain-level window homology and runs for every pair.  The
    page-assembled (std, +) module is the dual of the (bar, -) one, and so
    is its closed form (encoded_module: the dual of the (bar, -) table), so
    comparing those two would only check dual() against itself.  The chain
    route reads the standard model, so it checks every dual table.
    """
    field = run.field
    enc = ModuleWindow(encoded_module(run.group, orientation, flavor), win, field)
    sides = []
    if (orientation, flavor) == (BAR, MINUS):
        sides.append(("pages", ModuleWindow(run.assembled(BAR, MINUS), win, field)))
    sides.append(("chain", run.homology_window(orientation, flavor, win)))
    return [(route, compare_windows(side, enc, win, 4, margin)) for route, side in sides]


def closed_form_reports(run: GroupRun):
    """Every encoded closed form against the routes independent of it, on the
    run's comparison window: [(route, orientation, flavor, CompareReport)],
    the pair_reports of the six pairs in PAIRS order ("pages" for (bar, -),
    then "chain" for each pair).
    """
    win, margin = run.comparison_window()
    return [(route, orientation, flavor, rep)
            for orientation, flavor in PAIRS
            for route, rep in pair_reports(run, orientation, flavor, win, margin)]


def norm_vanishing_and_splitting(run: GroupRun):
    """The norm map vanishes on homology, so dim Hinf_n = dim Hminus_n +
    dim Hplus_{n-4}: the (bar, +) closed form and the assembled (bar, -)
    module sit in even degrees, and exact_triangle_check on the three bar
    models of the comparison window's source checks the whole safe interior,
    at least MIN_CHECKED_DEGREES degrees, with H(nu) of rank 0.  The models
    span from 5 below the interior to 1 above it, so the check reads the
    triangle on every interior degree; it raises on a degree it cannot read.
    Returns the check's report."""
    group = run.group
    for flavor, pm in ((PLUS, encoded_module(group, BAR, PLUS)),
                       (MINUS, run.assembled(BAR, MINUS))):
        if not pm.even_degrees_only():
            raise SplittingViolation("%s flavor %s has odd-degree classes" % (group, flavor))
    win, margin = run.comparison_window()
    degrees = win.interior(4, margin)
    read = Window(win.q, win.p, degrees.start - 5, degrees.stop)
    source = run.model(BAR).window(read.source, run.field)
    report = exact_triangle_check(*(functor_model(source, fl, read.n_lo, read.n_hi)
                                    for fl in (PLUS, MINUS, TATE)), degrees)
    if len(report["checked"]) < MIN_CHECKED_DEGREES:
        raise SplittingViolation("%s: the triangle checked %d of %d degrees, %d needed"
                                 % (group, len(report["checked"]), len(degrees), MIN_CHECKED_DEGREES))
    if report["norm_rank"]:
        raise SplittingViolation("%s: H(nu) is nonzero: r_(n-3) + r_(n-4) sums to %d on the "
                                 "checked degrees" % (group, report["norm_rank"]))
    return report


class Accounting(dict):
    """{n: (sum_s dim E^infty_{s,n-s}, dim H_n)}, as ss_accounting compared
    them; rows[n] = {s: dim E^infty_{s,n-s}} holds every level read."""

    def __init__(self):
        super().__init__()
        self.rows = {}


def ss_accounting(group, orientation, flavor, win: Window, field=QQ):
    """Truncated-filtration accounting: sum_s dim E^infty_{s,n-s} = dim H_n.

    Builds its own functor model, reads E^infty of its filtration by levels
    at every level (FilteredPages: one elimination of each boundary, rows
    keyed by level, then one echelon per degree walked up the levels), and
    compares each degree's total against direct homology (HomologyData,
    ranks keyed by position alone).  FilteredPages refuses a boundary that
    raises the level.  Returns the Accounting of every degree of the model.
    """
    model = build_model(group, orientation)
    w = model.window(win, field)
    fm = functor_model(w, flavor, win.n_lo, win.n_hi)
    pages = FilteredPages(fm.complex)
    h = fm.homology()
    out = Accounting()
    for n in fm.complex.degrees():
        row = out.rows[n] = pages.einfty_row(n)
        lhs, rhs = sum(row.values()), h.dim(n)
        out[n] = (lhs, rhs)
        if lhs != rhs:
            raise BPFloerError(
                "%s %s %s: accounting fails in degree %d: %d != %d"
                % (group, orientation, flavor, n, lhs, rhs)
            )
    return out
