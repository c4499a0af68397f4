"""Finite graded chain complexes with exact homology and E^infinity.

A FiniteComplex holds, per degree, an ordered basis of hashable labels and a
sparse boundary into the next degree down.  Chain maps are stored the same
way.  Homology is read from boundary ranks alone: its dims (HomologyData)
and the rank of a chain map on it (induced_rank).  The E^infinity page of
the filtration by levels is read at every level from one elimination per
boundary (FilteredPages).  Everything is exact over the attached field.
"""
from __future__ import annotations

from .errors import BPFloerError
from .fields import QQ
from .sparse import TrackedEchelon, _apply_columns


def _column(f, index, image):
    """A dict label -> value as a column over the positions of index; labels
    outside index (truncated away by the window) and zero values drop out."""
    col = {}
    for lab, v in image.items():
        v = f.of(v)
        if lab in index and not f.is_zero(v):
            col[index[lab]] = v
    return col


class FiniteComplex:
    def __init__(self, field=QQ):
        self.field = field
        self.basis = {}      # degree -> list of labels
        self.index = {}      # degree -> {label: position}
        self.boundary = {}   # degree -> list of column dicts (pos in deg-1 -> value)
        self.levels = {}     # degree -> list of filtration levels (optional)

    def add_generator(self, degree, label, level=None):
        lst = self.basis.setdefault(degree, [])
        idx = self.index.setdefault(degree, {})
        if label in idx:
            raise BPFloerError("duplicate generator %r in degree %d" % (label, degree))
        idx[label] = len(lst)
        lst.append(label)
        self.boundary.setdefault(degree, []).append({})
        self.levels.setdefault(degree, []).append(level)

    def set_boundary(self, degree, label, image):
        """image: dict target-label -> coefficient (targets in degree-1)."""
        pos = self.index[degree][label]
        self.boundary[degree][pos] = _column(self.field, self.index.get(degree - 1, {}), image)

    def degrees(self):
        return sorted(self.basis)

    def dim(self, degree):
        return len(self.basis.get(degree, []))

    def total_dim(self):
        return sum(len(v) for v in self.basis.values())

    def boundary_columns(self, degree):
        return self.boundary.get(degree, [])

    def check_dd_zero(self):
        f = self.field
        for n in self.degrees():
            lower = self.boundary.get(n - 1, [])
            for col in self.boundary_columns(n):
                if _apply_columns(f, lower, col):
                    raise BPFloerError("dd != 0 in degree %d" % n)
        return True


class ChainMap:
    """A degree-d map between complexes, stored as per-degree sparse columns."""

    def __init__(self, source, target, degree):
        self.source = source
        self.target = target
        self.degree = degree
        self.columns = {}  # source degree -> list of column dicts (target pos -> value)

    def set_image(self, degree, label, image):
        pos = self.source.index[degree][label]
        cols = self.columns.get(degree)
        if cols is None:  # built once per degree, not once per call
            cols = self.columns[degree] = [{} for _ in self.source.basis[degree]]
        tgt = self.target.index.get(degree + self.degree, {})
        cols[pos] = _column(self.source.field, tgt, image)

    def column(self, degree, pos):
        cols = self.columns.get(degree)
        return {} if cols is None else cols[pos]

    def apply(self, degree, vec):
        """Apply to a sparse vector in source degree; result in degree+self.degree."""
        cols = self.columns.get(degree)
        return {} if cols is None else _apply_columns(self.source.field, cols, vec)

    def is_chain_map(self, sign=1):
        """Check f d = sign * d f degreewise (sign -1 for odd-degree maps)."""
        f = self.source.field
        s = f.of(sign)
        for n in self.source.degrees():
            for pos in range(self.source.dim(n)):
                left = self.apply(n - 1, self.source.boundary_columns(n)[pos])
                sfx = self.apply(n, {pos: s})
                if left != _apply_columns(f, self.target.boundary_columns(n + self.degree), sfx):
                    return False
        return True


class HomologyData:
    """Homology of a FiniteComplex by ranks only.

    dim(n) is dim C_n - rank d_n - rank d_(n+1), each rank from one rank-only
    elimination (TrackedEchelon.independent) of d_n with rows keyed by -r, so
    that each stored row pivots at its largest position.  Degrees are ranked
    lazily: the first read of dim(n) ranks d_n and d_(n+1), once each;
    rank_boundary and dims() fill every degree.  The rank of a map on
    homology comes from the same ranks and one more (induced_rank).
    """

    def __init__(self, complex_):
        self.complex = complex_
        self._ranks = {}  # n -> rank d_n

    def _rows(self, n):
        return ({-r: v for r, v in col.items()} for col in self.complex.boundary_columns(n))

    def _rank(self, n):
        """rank of d_n : C_n -> C_(n-1); 0 off the complex."""
        rank = self._ranks.get(n)
        if rank is None and n in self.complex.basis:
            rank = self._ranks[n] = len(TrackedEchelon(self.complex.field).independent(
                self._rows(n)))
        return rank or 0

    @property
    def rank_boundary(self):
        """rank of d_n : C_n -> C_{n-1}, per degree n."""
        return {n: self._rank(n) for n in self.complex.degrees()}

    def dim(self, n):
        return self.complex.dim(n) - self._rank(n) - self._rank(n + 1)

    def dims(self):
        return {n: self.dim(n) for n in self.complex.degrees()}


def induced_rank(h_source: HomologyData, h_target: HomologyData, columns, n, m):
    """Rank of the map H_n(source) -> H_m(target) induced by a chain map f
    (f d = +-d f, so f maps cycles to cycles and boundaries to boundaries)
    whose columns out of degree n are columns: one dict (position in degree
    m of the target -> value) per generator of degree n of the source.

    The block [[f, d_(m+1)], [d_n, 0]] has image {(f x + d y, d x)}.  It
    projects onto im d_n, and the kernel of that projection is
    (f(Z_n) + B_m) x 0, so its rank less rank d_n and rank d_(m+1) is
    dim (f(Z_n) + B_m) / B_m, the rank on homology.  The block is ranked by
    one elimination with rows keyed by -r as in HomologyData, those of d_n
    below those of C_m, the columns of f first.  0 without an elimination
    when f is zero or H_n or H_m is.
    """
    if len(columns) != h_source.complex.dim(n):
        raise BPFloerError("%d columns out of degree %d, which has %d generators"
                           % (len(columns), n, h_source.complex.dim(n)))
    if not any(columns) or not h_source.dim(n) or not h_target.dim(m):
        return 0
    below = -h_target.complex.dim(m)  # C_(n-1) rows sit below every C_m row
    block = []
    for col, d in zip(columns, h_source.complex.boundary_columns(n)):
        row = {below - r: v for r, v in d.items()}
        row.update((-r, v) for r, v in col.items())
        block.append(row)
    block.extend(h_target._rows(m + 1))
    rank = len(TrackedEchelon(h_source.complex.field).independent(block))
    return rank - h_source._rank(n) - h_target._rank(m + 1)


# ---------------------------------------------------------------------------
# Spectral sequence of a finite filtered complex (dimension data only).


class FilteredPages:
    """E^infinity of the filtration of a FiniteComplex by levels.

    F_s C is spanned by the generators of level <= s; levels must be attached
    to every generator, and d F_s must lie in F_s: a boundary entry at a
    higher level than its source raises BPFloerError naming the degree and
    the generator.  E^infinity_{s,n-s} = Z_s / (Z_(s-1) + B_s), with
    Z_s = ker d_n in F_s C_n and B_s = im d_(n+1) in F_s C_n (the stable page
    of a bounded filtration), and is read at every level at once from one
    elimination per boundary d_n, done when the pages are built:

    - The columns of d_n go in by source level, their rows keyed by
      -(level * N + position), N = dim C_(n-1), so that each stored row
      pivots at its highest-level entry.
    - A kernel vector is 1 at its dependent column and otherwise on earlier
      ones, so it lies in the level of that column: Z_s is spanned by the
      kernel vectors of dependent columns of level <= s.
    - The stored rows are in echelon form with distinct pivots, so a
      combination of them reaches the highest pivot level among its terms:
      B_s in degree n - 1 is spanned by the rows pivoting at level <= s.

    einfty_row(n) walks one echelon over C_n up the levels, inserting the
    new B_s rows, then the new Z_s vectors; dim E^infinity_{s,n-s} is the
    rank those vectors add.
    """

    def __init__(self, complex_: FiniteComplex):
        self.complex = complex_
        self.field = complex_.field
        levels = [l for lst in complex_.levels.values() for l in lst]
        if any(l is None for l in levels):
            raise BPFloerError("filtered pages need levels on every generator")
        self.min_level = min(levels) if levels else 0
        self.max_level = max(levels) if levels else 0
        self._cycles = {}      # n -> level -> kernel vectors of d_n freed there
        self._boundaries = {}  # n -> level -> rows of im d_(n+1) pivoting there
        for n in complex_.degrees():
            self._eliminate(n)

    def _keys(self, n):
        """Position in C_n -> row key -(level * N + position), N = dim C_n."""
        levels = self.complex.levels.get(n, [])
        return [-(l * len(levels) + p) for p, l in enumerate(levels)]

    def _eliminate(self, n):
        cx = self.complex
        src, tgt = cx.levels[n], cx.levels.get(n - 1, [])
        order = sorted(range(len(src)), key=src.__getitem__)
        keys, cols = self._keys(n - 1), []
        for p in order:
            col = cx.boundary_columns(n)[p]
            for r in col:
                if tgt[r] > src[p]:
                    raise BPFloerError(
                        "d raises the level in degree %d: %r at level %d hits %r at level %d"
                        % (n, cx.basis[n][p], src[p], cx.basis[n - 1][r], tgt[r]))
            cols.append({keys[r]: v for r, v in col.items()})
        ech = TrackedEchelon(self.field)
        kernel, _ = ech.kernel_of_columns(cols)
        own = self._keys(n)
        cycles = self._cycles[n] = {}
        for vec in kernel:
            cycles.setdefault(src[order[max(vec)]], []).append(
                {own[order[j]]: v for j, v in vec.items()})
        boundaries = self._boundaries[n - 1] = {}
        for pivot, row in ech.rows.items():
            boundaries.setdefault((-pivot) // len(tgt), []).append(row)

    def einfty_row(self, n):
        """{s: dim E^infinity_{s,n-s}} for every level s from min to max."""
        cycles, boundaries = self._cycles.get(n, {}), self._boundaries.get(n, {})
        ech = TrackedEchelon(self.field)
        row = dict.fromkeys(range(self.min_level, self.max_level + 1), 0)
        for s in sorted(cycles.keys() | boundaries.keys()):
            ech.independent(boundaries.get(s, ()))
            row[s] = len(ech.independent(cycles.get(s, ())))
        return row
