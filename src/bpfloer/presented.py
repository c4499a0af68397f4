"""Mod-8-periodic graded module presentations and window comparisons.

A PresentedModule is a finite list of generator families.  Each family is a
tower x^k (k >= floor, or k in Z for Laurent families) with degree
base + step*k, sitting at a fixed filtration column.  U lowers degree by 4,
so its action follows from the step: U x^k = x^(k - 4/step) on a tower
(zero where that index is not valid) and zero on a step-0 class, unless an
explicit correction into other families is stored for (label, k).  Window
realizations enumerate the finitely many elements with level in (q, p] and
degree in [n_lo, n_hi].

Three window views answer dims and U-ranks.  ModuleWindow (a presentation)
and HomologyWindow (the homology of a materialized complex with its induced
U) share one U pass (_UWalk); BarWindow holds a sum of bars, the normal form
the chain route reads off equivariant.UReduction, and counts them.  All give
the rank invariant of the persistence module formed, along each residue class
mod 4, by the groups H_m and the degree -4 maps U between them: rank U^k out
of n is dim I_k(n - 4k), I_k(m) = im(U^k: H_{m+4k} -> H_m), which for bars is
the number of bars through n and n - 4k.  Where U leaves the window through
a nonzero class, that power and every higher one from the same degree have no
rank (None).  compare_windows asks each side for one table over its interior.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .chains import induced_map_between
from .donaldson import Window
from .errors import BPFloerError
from .fields import QQ
from .groups import ORBIT_OF_LETTER
from .sparse import TrackedEchelon, _apply_columns

PI8 = "pi8"
OPLUS8 = "oplus8"
PIINF8 = "piinf8"
FINITE = "finite"

_ORBIT_LETTER = re.compile(r"([A-Za-z])_")  # the letter of each "U_theta"-style component


@dataclass(frozen=True)
class Family:
    label: str
    base_degree: int        # degree of index 0 in the shift-0 copy
    step: int               # degree increment per index (0 for a single class)
    column: int             # filtration level of the shift-0 copy
    floor: int = 0          # smallest index; None for Laurent towers
    top: int | None = None  # largest index (0 for a single class), None if infinite

    def degree(self, k):
        return self.base_degree + self.step * k

    def valid(self, k):
        if self.floor is not None and k < self.floor:
            return False
        if self.top is not None and k > self.top:
            return False
        return True


@dataclass
class PresentedModule:
    flavor_tag: str
    families: list
    # U x^k is x^(k - 4/step) unless corrections[(label, k)] =
    # [(label2, k2, coeff), ...] is stored, which replaces it.
    corrections: dict = field(default_factory=dict)
    _by_label: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_label = {}
        for f in self.families:
            if f.step and 4 % f.step:
                raise BPFloerError("family %r: step %d does not divide the degree 4 of U"
                                   % (f.label, f.step))
            self._by_label.setdefault(f.label, f)

    def family(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise BPFloerError("no family %r" % label) from None

    def u_image(self, label, k):
        """U . x^k as [(label, index, integer coeff)]; degree drops by 4."""
        if (label, k) in self.corrections:
            return list(self.corrections[(label, k)])
        f = self.family(label)
        if not f.step:
            return []
        k2 = k - 4 // f.step
        return [(label, k2, 1)] if f.valid(k2) else []

    def even_degrees_only(self):
        """True when every element of the module sits in even degree."""
        for f in self.families:
            if f.step % 2:
                return False
            k0 = f.floor if f.floor is not None else 0
            if f.degree(k0) % 2:
                return False
        return True

    def dual(self):
        """The orientation dual of a module of floor-0 free towers.

        An orbit copy at level l pairs with level -l - delta (groups.ORBITS),
        so a tower with degree d, step s and column c becomes one with degree
        -d, step -s and column -c - delta.  For a family naming several
        orbits ("3U_theta^0-Z_lambda^1") delta is the largest of theirs: a
        dual copy lies inside a window only when its lowest standard level
        does.
        """
        if self.corrections:
            raise BPFloerError("dual() supports only free-tower modules")
        fams = []
        for f in self.families:
            if f.floor != 0 or f.top is not None:
                raise BPFloerError("dual() expects towers with floor 0")
            delta = max(ORBIT_OF_LETTER[x].delta for x in _ORBIT_LETTER.findall(f.label))
            fams.append(Family(f.label, -f.base_degree, -f.step, -f.column - delta, 0, None))
        return PresentedModule(self.flavor_tag, fams)


class _UWalk:
    """The U-power ranks of a window view, from one pass down a residue chain:
    the view over a presentation (ModuleWindow), and the test oracle for the
    chain route's bars, the homology of a totalized model (HomologyWindow).

    A view gives its field, dim(n), a dict _u_cols and _build_u_columns(n),
    built when a pass first applies U out of n: the columns of U out of
    degree n (one per basis element there, each a dict from positions in
    degree n - 4 to values), or None where U leaves the window.

    The pass starts at the top degree of a chain n, n - 4, n - 8, ... with
    every basis vector tagged 0 and keeps, at each degree m, a basis of H_m
    adapted to the image filtration I_k(m) = im(U^k: H_{m+4k} -> H_m): the
    vectors tagged k or more span I_k(m).  Stepping to m - 4 applies U to the
    basis in descending tag order, keeps the independent images tagged one
    higher (each prefix of the order spans its I_k, so the images of the
    prefix span I_{k+1}(m - 4)), and completes them with unit vectors tagged
    0.  rank U^k out of n is the number of vectors at n - 4k tagged k or more.
    An empty basis requests no U: the ranks that pass through it are 0.
    Where U out of m is None, a power that has to carry a nonzero class of
    I_j(m) out of m has no rank (None), nor has any higher power from the
    same degree; the filtration restarts below m.
    """

    def _u_columns(self, n):
        if n not in self._u_cols:
            self._u_cols[n] = self._build_u_columns(n)
        return self._u_cols[n]

    def u_rank_table(self, lo, hi, kmax):
        """{(k, n): rank of U^k out of n (None: no rank)} for lo <= n <= hi
        and 1 <= k <= kmax with n - 4k >= lo: one pass per residue chain."""
        table = {}
        for top in range(max(lo, hi - 3), hi + 1):
            table.update(self._rank_pass(top, lo, kmax))
        return table

    def u_power_ranks(self, n, kmax):
        """[rank U^k out of degree n for k = 1..kmax], None where there is no
        rank: read from the pass down n's chain."""
        table = self._rank_pass(n, n - 4 * kmax, kmax)
        return [table[k, n] for k in range(1, kmax + 1)]

    def u_power_rank(self, k, n):
        """rank of U^k from the degree-n slice to degree n-4k (None: no rank)."""
        return self.u_power_ranks(n, k)[-1]

    def _rank_pass(self, top, bottom, kmax):
        """{(k, n): rank of U^k out of n} for k <= kmax and the degrees n of
        the chain top, top - 4, ... with n - 4k >= bottom."""
        f = self.field
        ranks = {}
        seg = top  # where the filtration last (re)started
        tagged = [(0, {i: f.one}) for i in range(self.dim(top))]
        m = top
        while True:
            tags = [t for t, _ in tagged]
            starts = range(m, min(seg, m + 4 * kmax) + 1, 4)
            for n in starts:
                j = (n - m) // 4
                if j:
                    ranks[j, n] = sum(t >= j for t in tags)
            if m - 4 < bottom:
                return ranks
            cols = self._u_columns(m) if tagged else []
            if cols is None:  # U leaves the window out of m
                for n in starts:
                    j = (n - m) // 4
                    lost = any(t >= j for t in tags)
                    for k in range(j + 1, min(kmax, (n - bottom) // 4) + 1):
                        ranks[k, n] = None if lost else 0
                seg, tagged, pivots = m - 4, [], {}
            else:  # tagged is in descending tag order: images first, then units
                ech = TrackedEchelon(f)
                pivots = ech.independent([_apply_columns(f, cols, v) for _, v in tagged])
                tagged = [(tagged[j][0] + 1, ech.rows[c]) for j, c in pivots.items()]
            taken = set(pivots.values())
            tagged += [(0, {i: f.one}) for i in range(self.dim(m - 4)) if i not in taken]
            m -= 4


class ModuleWindow(_UWalk):
    """Finite realization of a PresentedModule inside a window."""

    def __init__(self, module: PresentedModule, win: Window, field=QQ):
        self.module = module
        self.win = win
        self.field = field
        basis = []
        for f in module.families:
            # copies: level = column + 8*shift in (q, p]
            for level in win.levels(f.column):
                s = (level - f.column) // 8
                basis.extend((f.label, k, s) for k in self._indices(f, s))
        self.basis = sorted(basis, key=lambda b: (self._deg(b), b))
        self.by_degree = {}
        for b in self.basis:
            self.by_degree.setdefault(self._deg(b), []).append(b)
        # position of each element among the basis elements of its degree
        self.index = {b: i for bs in self.by_degree.values() for i, b in enumerate(bs)}
        self._u_cols = {}

    def _indices(self, f: Family, shift):
        lo, hi = self.win.n_lo, self.win.n_hi
        out = []
        if f.step == 0:
            ks = range(f.floor or 0, (f.top if f.top is not None else f.floor or 0) + 1)
            for k in ks:
                if lo <= f.degree(k) + 8 * shift <= hi:
                    out.append(k)
            return out
        # solve lo <= base + step*k + 8*shift <= hi exactly over the integers
        a, b = lo - f.base_degree - 8 * shift, hi - f.base_degree - 8 * shift
        if f.step < 0:
            a, b = -b, -a
        step = abs(f.step)
        kmin = -((-a) // step)   # ceil(a / step)
        kmax = b // step         # floor(b / step)
        for k in range(kmin, kmax + 1):
            if f.valid(k):
                out.append(k)
        return out

    def _deg(self, b):
        label, k, s = b
        return self.module.family(label).degree(k) + 8 * s

    def dim(self, n):
        return len(self.by_degree.get(n, []))

    def _build_u_columns(self, n):
        f = self.field
        cols = []
        for label, k, s in self.by_degree.get(n, []):
            col = {}
            for lab2, k2, coeff in self.module.u_image(label, k):
                fam2 = self.module.family(lab2)
                # shift of the target copy fixed by the degree bookkeeping; a
                # step-derived image always fits, a stored correction may not
                d_target = self._deg((label, k, s)) - 4
                s2, rem = divmod(d_target - fam2.degree(k2), 8)
                if rem != 0:
                    raise BPFloerError("degree bookkeeping broke for %r" % ((label, k),))
                key = (lab2, k2, s2)
                pos = self.index.get(key)
                if pos is not None:
                    col[pos] = f.add(col.get(pos, f.zero), f.of(coeff))
            cols.append({p: v for p, v in col.items() if not f.is_zero(v)})
        return cols


class HomologyWindow(_UWalk):
    """dims / U^k-rank view of a computed window homology: floer-raw's view of
    the truncated model, and the oracle the chain route's bars are tested
    against."""

    def __init__(self, homology, u_chain_map):
        self.h = homology
        self.u = u_chain_map
        self.field = homology.complex.field
        self._u_cols = {}

    def dim(self, n):
        return self.h.dim(n)

    def _build_u_columns(self, n):
        """The induced U out of degree n; None off the complex or where U leaves it."""
        if n not in self.h.complex.basis:
            return None
        try:
            return induced_map_between(self.h, self.h, self.u, n)
        except BPFloerError:
            return None


class BarWindow:
    """dims / U^k-rank view of a direct sum of bars on the degrees [n_lo, n_hi].

    A bar (lo, hi) spans the classes in degrees lo, lo + 4, ..., hi, and U
    moves each one down the bar, the lowest to zero.  dim(n) is the number of
    bars through n, and rank U^k out of n the number through both n and
    n - 4k; it is None where n - 4k < n_lo, below the window.
    """

    def __init__(self, bars, n_lo, n_hi):
        self.n_lo, self.n_hi = n_lo, n_hi
        self.bars = {}  # (lo, hi) -> multiplicity
        self._dims = {}
        for lo, hi in bars:
            if (hi - lo) % 4 or not n_lo <= lo <= hi <= n_hi:
                raise BPFloerError("bar %r does not run down one residue class of [%d, %d]"
                                   % ((lo, hi), n_lo, n_hi))
            self.bars[lo, hi] = self.bars.get((lo, hi), 0) + 1
            for n in range(lo, hi + 1, 4):
                self._dims[n] = self._dims.get(n, 0) + 1

    def dim(self, n):
        return self._dims.get(n, 0)

    def u_rank_table(self, lo, hi, kmax):
        """{(k, n): rank of U^k out of n (None: no rank)} for lo <= n <= hi
        and 1 <= k <= kmax with n - 4k >= lo, the keys of _UWalk's table."""
        table = {(k, n): None if n - 4 * k < self.n_lo else 0
                 for n in range(lo, hi + 1) for k in range(1, min(kmax, (n - lo) // 4) + 1)}
        for (b_lo, b_hi), mult in self.bars.items():
            for n in range(b_lo + 4, min(b_hi, hi) + 1, 4):
                for k in range(1, min(kmax, (n - max(b_lo, lo)) // 4) + 1):
                    table[k, n] += mult
        return table

    def u_power_ranks(self, n, kmax):
        """[rank U^k out of degree n for k = 1..kmax], None where there is no rank."""
        table = self.u_rank_table(n - 4 * kmax, n, kmax)
        return [table[k, n] for k in range(1, kmax + 1)]

    def u_power_rank(self, k, n):
        """rank of U^k from the degree-n slice to degree n-4k (None: no rank)."""
        return self.u_power_ranks(n, k)[-1]


MIN_CHECKED_DEGREES = 8  # one mod-8 period; a comparison over fewer degrees fails


@dataclass
class CompareReport:
    ok: bool
    checked_degrees: list
    mismatches: list
    urank_made: int = 0      # U^k rank pairs compared
    urank_skipped: int = 0   # pairs dropped because a side had no rank (window edge)

    def __bool__(self):
        return self.ok


def compare_windows(left, right, win: Window, degree_margin=4, level_margin=4, u_powers=6):
    """PASS iff the safe interior (Window.interior) holds at least
    MIN_CHECKED_DEGREES degrees and dims and rank U^k agree on it.

    Each side gives one U-rank table for the interior (one pass per residue
    chain); a U^k pair where either side has no rank is counted as skipped.
    Rank mismatches are listed after the dim mismatches, by (k, n).
    """
    interior = win.interior(degree_margin, level_margin)
    lo, degrees = interior.start, list(interior)
    ta, tb = (side.u_rank_table(lo, interior.stop - 1, u_powers) for side in (left, right))
    mismatches = []
    ranked = []
    made = skipped = 0
    for n in degrees:
        a, b = left.dim(n), right.dim(n)
        if a != b:
            mismatches.append(("dim", n, a, b))
        for k in range(1, min(u_powers, (n - lo) // 4) + 1):
            ra, rb = ta[k, n], tb[k, n]
            if ra is None or rb is None:
                skipped += 1
                continue
            made += 1
            if ra != rb:
                ranked.append((k, n, ra, rb))
    mismatches += [("rankU^%d" % k, n, ra, rb) for k, n, ra, rb in sorted(ranked)]
    ok = len(degrees) >= MIN_CHECKED_DEGREES and not mismatches
    return CompareReport(ok, degrees, mismatches, made, skipped)
