"""Finite graded chain complexes with exact homology and filtered pages.

A FiniteComplex holds, per degree, an ordered basis of hashable labels and a
sparse boundary into the next degree down.  Chain maps are stored the same
way.  Everything is exact over the attached field.
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
    """Homology of a FiniteComplex: dims, representatives and coordinates.

    One elimination per degree: kernel_of_columns(d_n) with rows keyed by -r
    gives the cycle basis, one z_j = e_j - (earlier pivot columns) with top
    (largest position) j per dependent column j, and rows spanning B_{n-1}
    that pivot at their tops.  z_j is a representative iff j is no boundary
    top: that is the greedy rule z_j not in B + span(z_i, i < j), since a
    boundary with top j less a multiple of z_j is a cycle below j.  Boundary
    rows plus the representatives at their tops (tagged) give coordinates by
    solve, in which the boundaries' multiples drop out.

    Degrees are computed lazily: the first read of dim, coords or reps_in of
    degree n eliminates d_n and d_{n+1}, once each.  cycle_basis,
    rank_boundary, reps and dims() fill every degree.
    """

    def __init__(self, complex_):
        self.complex = complex_
        self._kernels = {}  # n -> (cycle basis of C_n, rank d_n, rows spanning B_{n-1})
        self._reps, self._coord = {}, {}

    def _eliminate(self, n):
        got = self._kernels.get(n)
        if got is None:
            ech = TrackedEchelon(self.complex.field)
            kernel, pivots = ech.kernel_of_columns(
                {-r: v for r, v in col.items()} for col in self.complex.boundary_columns(n))
            got = self._kernels[n] = (kernel, len(pivots), list(ech.rows.values()))
        return got

    def reps_in(self, n):
        """Cycles representing a basis of H_n; [] off the complex."""
        reps = self._reps.get(n)
        if reps is not None:
            return reps
        if n not in self.complex.basis:
            return []
        coord = self._coord[n] = TrackedEchelon(self.complex.field)
        if n + 1 in self.complex.basis:
            for row in self._eliminate(n + 1)[2]:
                coord.add_row(row)
        reps = self._reps[n] = []
        for z in self._eliminate(n)[0]:
            if -max(z) not in coord.rows:
                coord.add_row({-r: v for r, v in z.items()}, tag=len(reps))
                reps.append(z)
        return reps

    @property
    def cycle_basis(self):
        return {n: self._eliminate(n)[0] for n in self.complex.degrees()}

    @property
    def rank_boundary(self):
        """rank of d_n : C_n -> C_{n-1}, per degree n."""
        return {n: self._eliminate(n)[1] for n in self.complex.degrees()}

    @property
    def reps(self):
        return {n: self.reps_in(n) for n in self.complex.degrees()}

    def dim(self, n):
        return len(self.reps_in(n))

    def dims(self):
        return {n: self.dim(n) for n in self.complex.degrees()}

    def coords(self, n, vec):
        """Coordinates of a cycle in the homology basis of degree n.

        Returns None when vec is not a cycle class of this complex.
        """
        vec = {-r: v for r, v in vec.items() if not self.complex.field.is_zero(v)}
        self.reps_in(n)  # builds the reducer of degree n
        if n not in self._coord:
            return {} if not vec else None
        residue, coeffs = self._coord[n].solve(vec)
        return None if residue else coeffs


def induced_map_between(h_source: HomologyData, h_target: HomologyData, cmap: ChainMap, n):
    """Induced map H_n(source) -> H_{n+d}(target) as a list of coordinate dicts."""
    cols = []
    for vec in h_source.reps_in(n):
        img = cmap.apply(n, vec)
        coords = h_target.coords(n + cmap.degree, img)
        if coords is None:
            raise BPFloerError("image of a cycle is not a cycle mod boundaries")
        cols.append(coords)
    return cols


def matrix_rank(cols, field):
    return len(TrackedEchelon(field).independent(cols))


# ---------------------------------------------------------------------------
# Spectral sequence of a finite filtered complex (dimension data only).


class FilteredPages:
    """E^r page dimensions of the filtration of a FiniteComplex by levels.

    Levels must be attached to every generator.  Only dimensions are
    computed; this is the generic oracle used by the accounting checks.
    """

    def __init__(self, complex_: FiniteComplex):
        self.complex = complex_
        self.field = complex_.field
        levels = [l for lst in complex_.levels.values() for l in lst]
        if any(l is None for l in levels):
            raise BPFloerError("filtered pages need levels on every generator")
        self.min_level = min(levels) if levels else 0
        self.max_level = max(levels) if levels else 0
        self._z_cache = {}

    def _z_basis(self, s, n, r):
        """Basis of Z^r_s in degree n: x in F_s C_n with dx in F_{s-r} C_{n-1}."""
        # once s - r < min_level the row filter below keeps every row, so
        # Z^r_s no longer depends on r: clamp it to share one cache entry
        r = min(r, s - self.min_level + 1)
        key = (s, n, r)
        got = self._z_cache.get(key)
        if got is not None:
            return got
        f = self.field
        cx = self.complex
        idxs = [i for i, l in enumerate(cx.levels.get(n, [])) if l <= s]
        cols = []
        lev_lower = cx.levels.get(n - 1, [])
        for i in idxs:
            col = cx.boundary_columns(n)[i]
            cols.append({row: v for row, v in col.items() if lev_lower[row] > s - r})
        kernel, _ = TrackedEchelon(f).kernel_of_columns(cols)
        out = []
        for vec in kernel:
            out.append({idxs[i]: v for i, v in vec.items()})
        self._z_cache[key] = out
        return out

    def page_dim(self, r, s, t):
        """dim E^r_{s,t} for r >= 1."""
        f = self.field
        n = s + t
        z = self._z_basis(s, n, r)
        if not z:
            return 0
        ech = TrackedEchelon(f)
        for vec in self._z_basis(s - 1, n, r - 1):
            ech.insert(vec)
        bcols = self.complex.boundary_columns(n + 1)
        for vec in self._z_basis(s + r - 1, n + 1, r - 1):
            ech.insert(_apply_columns(f, bcols, vec))
        dim_bottom = ech.rank
        for vec in z:
            ech.insert(vec)
        return ech.rank - dim_bottom

    def stable_r(self):
        return self.max_level - self.min_level + 2

    def einfty_dim(self, s, t):
        return self.page_dim(self.stable_r(), s, t)

    def einfty_total(self, n):
        """sum over s of dim E^infty_{s, n-s}; levels outside range contribute 0."""
        total = 0
        for s in range(self.min_level, self.max_level + 1):
            total += self.einfty_dim(s, n - s)
        return total
