"""Sparse exact linear algebra over a coefficient field.

TrackedEchelon is the package's one one-sided elimination kernel: it reduces
vectors against a row space, and homology ranks, the E^infinity of a
filtered complex (one kernel per boundary), the page engine and the
representation-ring solves in mckay all run on it.  The
package's one two-sided elimination, rows and columns of one differential at
once, is equivariant.UReduction, the U-adic reduction the chain route reads.  The
echelon's pivot rule is fixed: vectors are taken in insertion order, and each
stored row pivots at its smallest column.  Every elimination is therefore
deterministic; golden tests rely on this.  A row remembers how it was made
in one way: its multipliers, the multiple of each older row that reduce
subtracted.  reduce returns those multiples with the residue; solve and
kernel_of_columns turn them into combinations of the tagged inputs by back
substitution, so a kernel vector or solve costs the stored entries and
multipliers, not a dense inverse.
"""
from __future__ import annotations

from .fields import QQ


def _apply_columns(f, cols, vec):
    """sum of vec[j] * cols[j] over the sparse vector vec; zeros are dropped.

    cols maps a position to its column (dict row -> value)."""
    out = {}
    for j, x in vec.items():
        for i, v in cols[j].items():
            out[i] = f.add(out.get(i, f.zero), f.mul(v, x))
    return {i: v for i, v in out.items() if not f.is_zero(v)}


class TrackedEchelon:
    """A growing row space in echelon form; each tagged row keeps its
    multipliers, how it was made from its input: V_tag = p * row +
    sum steps[c] * rows[c], every c an older row.

    Each stored row is 1 at its smallest column, its pivot, and rows are
    never back-substituted.  Reducing a vector at the smallest pivot column
    present therefore only introduces larger columns, and reduce returns the
    unique residue that is zero at every pivot column with the multiple of
    each row subtracted; both depend on the pivot set alone.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.rows = {}  # pivot col -> row dict, 1 at the pivot
        # pivot col of a tagged row -> (tag, 1 / pivot value, {older pivot
        # col: multiple of its row subtracted}), in insertion order
        self.multipliers = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return (residue, steps) with vec = residue + sum steps[c] * rows[c]."""
        f = self.field
        v = {c: x for c, x in vec.items() if not f.is_zero(x)}
        steps = {}
        rows = self.rows
        while True:
            hits = [c for c in v if c in rows]  # O(|v|), not O(rank)
            if not hits:
                return v, steps
            c = min(hits)
            coef = steps[c] = v.pop(c)  # the row is 1 at c, so c cancels
            for cc, rv in rows[c].items():
                if cc != c:
                    nv = f.sub(v.get(cc, f.zero), f.mul(coef, rv))
                    if f.is_zero(nv):
                        v.pop(cc, None)
                    else:
                        v[cc] = nv

    def _store(self, residue, tag, steps):
        """Store a nonzero residue as the row of its smallest column, which it
        returns; a tag records the row's multipliers."""
        f = self.field
        c = min(residue)
        inv = f.inv(residue[c])
        self.rows[c] = {cc: f.mul(x, inv) for cc, x in residue.items()}
        if tag is not None:
            self.multipliers[c] = (tag, inv, steps)
        return c

    def insert(self, vec, tag=None):
        """Reduce vec and store its residue if it is nonzero; returns the new
        pivot col, or None if vec is dependent on the stored rows."""
        v, steps = self.reduce(vec)
        return self._store(v, tag, steps) if v else None

    def _back_substitute(self, y):
        """h with sum y[c] * rows[c] = sum h[tag] * V_tag plus a combination
        of the untagged rows.

        It runs over the tagged rows that y reaches through the multipliers,
        each after every reached row that names it (a row's multipliers name
        only older rows): the coefficient of row_c in sum h * V is p_c * h_c
        plus the multiples m * h_r of the newer rows r that subtracted it, so
        h_c = (y_c - those) / p_c.  The cost is the multipliers of the
        reached rows, not the rank.
        """
        f, mult = self.field, self.multipliers
        namers = {c: 0 for c in y if c in mult}  # reached row -> reached rows naming it
        todo = list(namers)
        while todo:
            for r in mult[todo.pop()][2]:
                if r in mult:
                    if r not in namers:
                        todo.append(r)
                    namers[r] = namers.get(r, 0) + 1
        ready = [c for c, k in namers.items() if not k]
        h, pending = {}, {}
        while ready:
            c = ready.pop()
            tag, p_inv, steps = mult[c]
            x = f.sub(y.get(c, f.zero), pending.get(c, f.zero))
            if not f.is_zero(x):
                h[tag] = x = f.mul(x, p_inv)
                for r, m in steps.items():
                    pending[r] = f.add(pending.get(r, f.zero), f.mul(m, x))
            for r in steps:
                if r in mult:
                    namers[r] -= 1
                    if not namers[r]:
                        ready.append(r)
        return h

    def solve(self, vec):
        """Return (residue, h) with vec = residue + sum h[tag] * V_tag plus a
        combination of the untagged rows, whose multiples drop out."""
        residue, y = self.reduce(vec)
        return residue, self._back_substitute(y)

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
        columns, by back substitution) per dependent column j, and the
        positions j whose column was independent.
        """
        f = self.field
        kernel, pivots = [], []
        for j, col in enumerate(columns):
            residue, steps = self.reduce(col)
            if residue:
                self._store(residue, j, steps)
                pivots.append(j)
            else:
                vec = {j: f.one}
                for t, x in self._back_substitute(steps).items():
                    vec[t] = f.neg(x)
                kernel.append(vec)
        return kernel, pivots
