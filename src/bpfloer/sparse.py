"""Sparse exact linear algebra over a coefficient field.

TrackedEchelon is the package's one elimination kernel: homology, filtered
pages, the page engine and the representation-ring solves in mckay all run on
it.  Its pivot rule is fixed: vectors are taken in insertion order, and each
stored row pivots at its smallest column.  Every elimination is therefore
deterministic; golden tests rely on this.  A row remembers how it was made in
one of two ways: kernel_of_columns and add_row keep tag combinations, which
reduce accumulates (the kernel vectors and homology coordinates); a tagged
insert keeps its multipliers instead, which solve reads by forward and back
substitution, so a solve costs the stored entries and multipliers, not the
dense inverse that tag combinations fill in.  dense_rank is its oracle, an
independent dense elimination used only by the tests.
"""
from __future__ import annotations

from .fields import QQ


class SparseMat:
    """A rows x cols matrix stored as {(i, j): value}; zero entries are dropped."""

    def __init__(self, nrows, ncols, entries=None, field=QQ):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        data = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError("entry (%d, %d) out of range" % (i, j))
            v = field.of(v)
            if not field.is_zero(v):
                data[(i, j)] = v
        self.data = data

    @classmethod
    def from_rows(cls, rows, field=QQ):
        entries = {}
        ncols = max((len(r) for r in rows), default=0)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(len(rows), ncols, entries, field)

    def columns(self):
        """Column-major view: list of dicts row -> value."""
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.data.items():
            cols[j][i] = v
        return cols

    def apply(self, vec):
        """Matrix times a sparse vector (dict col -> value)."""
        cols = getattr(self, "_cols", None)
        if cols is None:
            cols = self._cols = self.columns()
        return _apply_columns(self.field, cols, vec)

    def transpose(self):
        return SparseMat(
            self.ncols, self.nrows, {(j, i): v for (i, j), v in self.data.items()}, self.field
        )

    def __repr__(self):
        return "SparseMat(%dx%d, %d nonzero)" % (self.nrows, self.ncols, len(self.data))


def _apply_columns(f, cols, vec):
    """sum of vec[j] * cols[j] over the sparse vector vec; zeros are dropped.

    cols maps a position to its column (dict row -> value)."""
    out = {}
    for j, x in vec.items():
        for i, v in cols[j].items():
            out[i] = f.add(out.get(i, f.zero), f.mul(v, x))
    return {i: v for i, v in out.items() if not f.is_zero(v)}


def rank_kernel_image(m: SparseMat):
    """Exact (rank, kernel basis, image basis) of a sparse matrix.

    Kernel vectors are dicts col -> value with M.v = 0 exactly: for each
    dependent column j, in ascending j, the one with value 1 at j supported on
    j and the earlier pivot columns.  The image basis is the pivot columns
    (dicts row -> value) in ascending order.
    """
    cols = m.columns()
    kernel, pivots = TrackedEchelon(m.field).kernel_of_columns(cols)
    return len(pivots), kernel, [cols[j] for j in pivots]


def dense_rank(matrix_rows, field=QQ):
    """Dense Gaussian elimination oracle; input is a list of value lists."""
    f = field
    rows = [[f.of(v) for v in r] for r in matrix_rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    lead = 0  # the rank so far
    for j in range(ncols):
        pivot = None
        for i in range(lead, len(rows)):
            if not f.is_zero(rows[i][j]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        inv = f.inv(rows[lead][j])
        rows[lead] = [f.mul(v, inv) for v in rows[lead]]
        for i in range(len(rows)):
            if i != lead and not f.is_zero(rows[i][j]):
                coef = rows[i][j]
                rows[i] = [f.sub(a, f.mul(coef, b)) for a, b in zip(rows[i], rows[lead])]
        lead += 1
    return lead


class TrackedEchelon:
    """A growing row space in echelon form that remembers how each row was
    made from the inserted vectors: as a combination of their tags
    (kernel_of_columns, add_row) or by its multipliers (a tagged insert).

    Each stored row is 1 at its smallest column, its pivot, and rows are
    never back-substituted.  Reducing a vector at the smallest pivot column
    present therefore only introduces larger columns, and reduce returns the
    unique residue of the vector that is zero at every pivot column; ranks,
    residues and tag coefficients depend on the pivot set alone.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.rows = {}  # pivot col -> (row dict, coeffs dict tag -> value)
        # pivot col of a tagged insert -> (tag, 1 / pivot value, {earlier pivot
        # col: multiple of its row subtracted}), in insertion order
        self.multipliers = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec, steps=None):
        """Return (residue, coeffs) with vec = residue + sum coeffs[tag]*V_tag.

        If steps is a dict, it also receives the multiple of each stored row
        subtracted, by pivot column: vec = residue + sum steps[c] * row_c.
        """
        f = self.field
        v = {c: x for c, x in vec.items() if not f.is_zero(x)}
        coeffs = {}
        rows = self.rows
        while True:
            hits = [c for c in v if c in rows]  # O(|v|), not O(rank)
            if not hits:
                return v, coeffs
            c = min(hits)
            coef = v[c]
            if steps is not None:
                steps[c] = coef
            row, rc = rows[c]
            for cc, rv in row.items():
                nv = f.sub(v.get(cc, f.zero), f.mul(coef, rv))
                if f.is_zero(nv):
                    v.pop(cc, None)
                else:
                    v[cc] = nv
            for tag, tv in rc.items():
                nv = f.add(coeffs.get(tag, f.zero), f.mul(coef, tv))
                if f.is_zero(nv):
                    coeffs.pop(tag, None)
                else:
                    coeffs[tag] = nv

    def _store(self, residue, coeffs, tag):
        """Store a nonzero residue as the row of its smallest column, which it
        returns."""
        f = self.field
        c = min(residue)
        inv = f.inv(residue[c])
        row = {cc: f.mul(x, inv) for cc, x in residue.items()}
        rc = {t: f.mul(f.neg(x), inv) for t, x in coeffs.items()}
        if tag is not None:
            rc[tag] = inv
        self.rows[c] = (row, rc)
        return c

    def add_row(self, row, tag=None):
        """Store row, 1 at its smallest column (no stored pivot), tagged by tag."""
        self.rows[min(row)] = (row, {} if tag is None else {tag: self.field.one})

    def insert(self, vec, tag=None):
        """Reduce vec and store its residue if it is nonzero; returns the new
        pivot col, or None if vec is dependent on the stored rows.

        A tagged vector records its row's multipliers for solve, and its tag
        enters no tag combination: vec = p * row + sum steps[c] * row_c, with
        p its pivot value and every c an earlier row.
        """
        steps = None if tag is None else {}
        v, coeffs = self.reduce(vec, steps)
        if not v:
            return None
        c = self._store(v, coeffs, None)
        if tag is not None:
            self.multipliers[c] = (tag, self.field.inv(v[c]), steps)
        return c

    def solve(self, vec):
        """Return (residue, h) with vec = residue + sum h[tag] * V_tag over the
        tagged inserts, every stored row being one.

        Forward substitution is reduce, recording y = steps (vec = residue +
        sum y_c * row_c).  Back substitution runs over the rows newest first,
        since a row's multipliers name only older rows: the coefficient of
        row_c in sum h * V is p_c * h_c plus the multiples m * h_r of the
        newer rows r that subtracted it, so h_c = (y_c - those) / p_c.  The
        cost is the stored entries and multipliers touched, one pass each.
        """
        f = self.field
        y = {}
        residue, _ = self.reduce(vec, y)
        h, pending = {}, {}
        for c in reversed(self.multipliers):
            tag, p_inv, steps = self.multipliers[c]
            x = f.sub(y.get(c, f.zero), pending.get(c, f.zero))
            if f.is_zero(x):
                continue
            h[tag] = x = f.mul(x, p_inv)
            for r, m in steps.items():
                pending[r] = f.add(pending.get(r, f.zero), f.mul(m, x))
        return residue, h

    def independent(self, vectors):
        """Insert each vector, untagged.

        Returns {position in vectors: pivot column of its stored row} for the
        vectors independent of the ones before them; the stored rows span the
        same space as all the vectors.
        """
        pivots = {}
        for j, vec in enumerate(vectors):
            c = self.insert(vec)
            if c is not None:
                pivots[j] = c
        return pivots

    def kernel_of_columns(self, columns):
        """Kernel of the map sending basis vector j to columns[j].

        Inserts the columns in order, tagged by position, and returns
        (kernel, pivots): one kernel vector e_j - (combination of earlier
        columns) per dependent column j, and the positions j whose column was
        independent.
        """
        f = self.field
        kernel, pivots = [], []
        for j, col in enumerate(columns):
            residue, coeffs = self.reduce(col)
            if residue:
                self._store(residue, coeffs, j)
                pivots.append(j)
            else:
                vec = {j: f.one}
                for t, x in coeffs.items():
                    vec[t] = f.neg(x)
                kernel.append(vec)
        return kernel, pivots
