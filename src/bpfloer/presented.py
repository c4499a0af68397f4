"""Mod-8-periodic graded module presentations and window comparisons.

A PresentedModule is a finite list of generator families.  Each family is a
tower x^k (k >= floor, or k in Z for Laurent families) with degree
base + step*k, sitting at a fixed filtration column; the U-action either
shifts the tower index or is overridden per index by explicit corrections
into other families.  Window realizations enumerate the finitely many
elements with level in (q, p] and degree in [n_lo, n_hi].

Both window views (ModuleWindow for a presentation, HomologyWindow for a
computed window homology) answer dims and share one U walk (_UWalk):
u_power_ranks(n, kmax), the ranks of U^1..U^kmax out of degree n from a
single walk down from n.  compare_windows asks each side once per degree.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    # U-rules: per family label either ("shift", ds) meaning U x^k = x^{k+ds},
    # with out-of-range images dropped, or explicit corrections per index:
    # corrections[(label, k)] = [(label2, k2, coeff), ...] overriding the shift.
    shifts: dict = field(default_factory=dict)
    corrections: dict = field(default_factory=dict)
    _by_label: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_label = {}
        for f in self.families:
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
        ds = self.shifts.get(label)
        if ds is None:
            return []
        k2 = k + ds
        if not f.valid(k2):
            return []
        return [(label, k2, 1)]

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
        fams, shifts = [], {}
        for f in self.families:
            if f.floor != 0 or f.top is not None:
                raise BPFloerError("dual() expects towers with floor 0")
            delta = max(ORBIT_OF_LETTER[x].delta for x in _ORBIT_LETTER.findall(f.label))
            fams.append(Family(f.label, -f.base_degree, -f.step, -f.column - delta, 0, None))
            shifts[f.label] = -self.shifts[f.label]
        return PresentedModule(self.flavor_tag, fams, shifts, {})


class _UWalk:
    """The U-power ranks of a window view, from one walk down per degree.

    A view gives its field, dim(n), a dict _u_cols and _build_u_columns(n),
    built when a walk first reaches n: the columns of U out of degree n (one
    per basis element there, each a dict from positions in degree n - 4 to
    values), or None where U leaves the window.
    """

    def _u_columns(self, n):
        if n not in self._u_cols:
            self._u_cols[n] = self._build_u_columns(n)
        return self._u_cols[n]

    def u_power_ranks(self, n, kmax):
        """[rank U^k out of degree n for k = 1..kmax], one walk down.

        The walk keeps only a basis of the current image, since rank U^{k+1}
        is the rank of U on im U^k.  Once the image is zero (for instance
        when the degree is empty) the remaining ranks are 0; a power whose
        walk has to leave the window through a nonzero class has no rank
        (None), nor has any higher power.
        """
        f = self.field
        vectors = [{i: f.one} for i in range(self.dim(n))]
        ranks = []
        for k in range(kmax):
            if vectors:
                cols = self._u_columns(n - 4 * k)
                if cols is None:
                    return ranks + [None] * (kmax - k)
                vectors = _independent(f, [_apply_columns(f, cols, v) for v in vectors])
            ranks.append(len(vectors))
        return ranks

    def u_power_rank(self, k, n):
        """rank of U^k from the degree-n slice to degree n-4k (None: no rank)."""
        return self.u_power_ranks(n, k)[-1]


def _independent(f, vectors):
    """The vectors independent of the ones before them; they span the same space."""
    _, pivots = TrackedEchelon(f).kernel_of_columns(vectors)
    return [vectors[j] for j in pivots]


class ModuleWindow(_UWalk):
    """Finite realization of a PresentedModule inside a window."""

    def __init__(self, module: PresentedModule, win: Window, field=QQ):
        self.module = module
        self.win = win
        self.field = field
        basis = []
        for f in module.families:
            # copies: level = column + 8*shift in (q, p]
            lo_shift = -((f.column - (win.q + 1)) // 8)
            for s in range(lo_shift, (win.p - f.column) // 8 + 1):
                level = f.column + 8 * s
                if not (win.q < level <= win.p):
                    continue
                ks = self._indices(f, s)
                for k in ks:
                    basis.append((f.label, k, s))
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
                # shift of the target copy fixed by the degree bookkeeping
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
    """dims / U^k-rank view of a computed window homology."""

    def __init__(self, homology, u_chain_map):
        self.h = homology
        self.u = u_chain_map
        self.field = homology.complex.field
        self._u_cols = {}

    def dim(self, n):
        return self.h.dim(n)

    def _build_u_columns(self, n):
        """The induced U out of degree n; None off the complex or where U leaves it."""
        from .chains import induced_map_between

        try:
            return induced_map_between(self.h, self.h, self.u, n) if n in self.h.reps else None
        except BPFloerError:
            return None


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

    Each side walks each degree once for all its U powers; a U^k pair where
    either side has no rank is counted as skipped.  Rank mismatches are
    listed after the dim mismatches, by (k, n).
    """
    interior = win.interior(degree_margin, level_margin)
    lo, degrees = interior.start, list(interior)
    mismatches = []
    ranked = []
    made = skipped = 0
    for n in degrees:
        a, b = left.dim(n), right.dim(n)
        if a != b:
            mismatches.append(("dim", n, a, b))
        kmax = min(u_powers, (n - lo) // 4)
        ras, rbs = left.u_power_ranks(n, kmax), right.u_power_ranks(n, kmax)
        for k, ra, rb in zip(range(1, kmax + 1), ras, rbs):
            if ra is None or rb is None:
                skipped += 1
                continue
            made += 1
            if ra != rb:
                ranked.append((k, n, ra, rb))
    mismatches += [("rankU^%d" % k, n, ra, rb) for k, n, ra, rb in sorted(ranked)]
    ok = len(degrees) >= MIN_CHECKED_DEGREES and not mismatches
    return CompareReport(ok, degrees, mismatches, made, skipped)
