"""The tests' own builders and checks, independent of the package's
elimination: a dense Gauss-Jordan rank and kernel, the single-orbit
complexes of criterion 3, the d^2 = 0 check of a complex, and the U-adic
reduction's input read off a materialized window."""
from bpfloer.chains import ChainMap, FiniteComplex
from bpfloer.donaldson import Gen
from bpfloer.equivariant import UReduction
from bpfloer.fields import QQ
from bpfloer.groups import IRREDUCIBLE, ORBITS
from bpfloer.sparse import _apply_columns


def dense_rank_and_kernel(cols, nrows, f):
    """Rank and a kernel basis of the nrows-row matrix with the given sparse
    columns (dicts row -> value), by dense Gauss-Jordan elimination over f.

    The kernel has one vector per dependent column j, in ascending j: 1 at j
    and supported on j and the earlier pivot columns."""
    a = [[f.of(col.get(i, 0)) for col in cols] for i in range(nrows)]
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


def single_orbit_complex(kind, n_lo, n_hi, field=QQ):
    """One critical orbit of the given kind placed at level 0, with zero
    boundary: its generators in degrees [n_lo, n_hi], and u the degree 3
    map, nonzero only from the bottom class of a free orbit to its top.
    Returns (FiniteComplex, u ChainMap)."""
    cx = FiniteComplex(field)
    gens = [Gen("pt", t, 0) for t in ORBITS[kind].slots if n_lo <= t <= n_hi]
    for g in gens:
        cx.add_generator(g.degree, g, level=0)
    u = ChainMap(cx, cx, 3)
    for g in gens:
        img = {}
        if kind == IRREDUCIBLE and g.t == 0 and any(x.t == 3 for x in gens):
            img = {Gen("pt", 3, 0): 1}
        u.set_image(g.degree, g, img)
    return cx, u


def check_dd_zero(cx):
    """Assert d_(n-1) d_n = 0 on every generator of the complex cx."""
    for n in cx.degrees():
        lower = cx.boundary_columns(n - 1)
        for pos, col in enumerate(cx.boundary_columns(n)):
            assert not _apply_columns(cx.field, lower, col), (n, cx.basis[n][pos])


def window_u_reduction(window):
    """The UReduction of a materialized WindowedComplex: its generators in
    basis order, degree by degree, and D x = d x + (-1)^(deg x + 1) U u(x)
    read off the window's boundary columns and its u ChainMap, each column
    moved from its degree's positions to the flat ones."""
    cx, u, f = window.complex, window.u, window.field
    labels, degrees, start = [], [], {}
    for d in cx.degrees():
        start[d] = len(labels)
        labels += cx.basis[d]
        degrees += [d] * cx.dim(d)
    columns = []
    for d in cx.degrees():
        sgn = f.of(1 if d % 2 else -1)
        for i, scol in enumerate(cx.boundary_columns(d)):
            col = {start[d - 1] + r: v for r, v in scol.items()}
            for r, v in u.column(d, i).items():
                col[start[d + 3] + r] = f.mul(sgn, v)
            columns.append(col)
    return UReduction(f, labels, degrees, columns)
