"""McKay graphs, the equation solver, labels and gradings."""
import math
import random
from fractions import Fraction

import pytest

from bpfloer import mckay
from bpfloer.errors import BPFloerError, GraphShapeError, LabelMismatch, NotDynkin, Unsolvable
from bpfloer.fields import QQ
from bpfloer.groups import (
    I_STAR,
    O_STAR,
    T_STAR,
    binary_dihedral,
    character_table,
    cyclic,
    q_tensor_matrix,
    quaternionic_reps,
)
from bpfloer.mckay import (
    VirtualRep,
    expected_s_graph_data,
    mckay_graph,
    minimal_solution_graphical,
    quotient_graph,
    recognize_subgroup,
    s_graph,
    s_graph_matches_expected,
    solve_rep_equation,
)
from bpfloer.sparse import TrackedEchelon

ACCEPT_GROUPS = (
    [cyclic(k) for k in range(2, 13)]
    + [binary_dihedral(k) for k in range(2, 13)]
    + [T_STAR, O_STAR, I_STAR]
)


def quat_vec(g, name):
    qs = {q.name: q for q in quaternionic_reps(g)}
    return VirtualRep.of_quat(g, qs[name])


def test_mckay_shapes():
    assert mckay_graph(O_STAR).dynkin_type == "E~7"
    assert sorted(mckay_graph(O_STAR).dims) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert mckay_graph(cyclic(3)).dynkin_type == "A~2"
    m = mckay_graph(cyclic(3))
    assert all(sum(row) == 2 for row in m.adjacency)  # a 3-cycle
    assert mckay_graph(binary_dihedral(2)).dynkin_type == "D~4"
    assert mckay_graph(T_STAR).dynkin_type == "E~6"
    assert mckay_graph(I_STAR).dynkin_type == "E~8"


def test_mckay_marks_are_dims():
    for g in (T_STAR, O_STAR, I_STAR, binary_dihedral(5), cyclic(7)):
        m = mckay_graph(g)
        n = len(m.dims)
        for j in range(n):
            assert sum(m.adjacency[i][j] * m.dims[i] for i in range(n)) == 2 * m.dims[j]


def test_quotient_graphs():
    # five-orbit chain for the tetrahedral case
    m = mckay_graph(T_STAR)
    quo = quotient_graph(m, character_table(T_STAR).iota)
    assert len(quo.orbits) == 5
    degs = sorted(sum(row) for row in quo.adjacency)
    assert degs == [1, 1, 2, 2, 2] and not quo.loops
    # even cyclic: chain theta -- lambda1 -- eta
    m = mckay_graph(cyclic(4))
    quo = quotient_graph(m, character_table(cyclic(4)).iota)
    assert len(quo.orbits) == 3 and not quo.loops
    # odd cyclic: loop at the far end
    m = mckay_graph(cyclic(5))
    quo = quotient_graph(m, character_table(cyclic(5)).iota)
    assert len(quo.orbits) == 3 and len(quo.loops) == 1
    # icosahedral: the involution is the identity
    m = mckay_graph(I_STAR)
    quo = quotient_graph(m, character_table(I_STAR).iota)
    assert len(quo.orbits) == 9


def test_solver_trivial_and_examples():
    g = O_STAR
    alpha = quat_vec(g, "alpha")
    assert solve_rep_equation(g, alpha, alpha).is_zero()
    h = solve_rep_equation(g, quat_vec(g, "eta"), quat_vec(g, "beta"))
    names = [ir.name for ir in character_table(g).irreps]
    assert h.coeffs[names.index("rho2")] == 1 and h.epsilon() == 1
    h2 = solve_rep_equation(g, quat_vec(g, "beta"), quat_vec(g, "alpha"))
    assert h2.epsilon() == 24


@pytest.mark.parametrize("g", ACCEPT_GROUPS, ids=str)
def test_solver_exactness_all_pairs(g):
    qs = quaternionic_reps(g)
    for a in qs:
        for b in qs:
            va, vb = VirtualRep.of_quat(g, a), VirtualRep.of_quat(g, b)
            h = solve_rep_equation(g, va, vb)
            assert h.mult_by_two_minus_q() == va - vb
            assert h.is_actual()
            assert any(c == 0 for c in h.coeffs) or h.is_zero()


def test_recognition():
    def adj(pairs):
        nbrs = {}
        for i, j in pairs:
            nbrs.setdefault(i, []).append(j)
            nbrs.setdefault(j, []).append(i)
        return lambda v: nbrs.get(v, [])

    g, order = recognize_subgroup([0], adj(set()))
    assert str(g) == "C_2" and order == 2
    chain6 = {(i, i + 1) for i in range(5)}
    chain6 |= {(1, 6)}  # fork at vertex 1 -> D-type on 7 vertices
    g, order = recognize_subgroup(list(range(7)), adj(chain6))
    assert g.family == "D" and order == 4 * (7 - 2)
    # D6 recognizes the order-16 subgroup
    d6 = {(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)}
    g, order = recognize_subgroup(list(range(6)), adj(d6))
    assert str(g) == "D*_4" and order == 16
    for n, want in ((6, "T*"), (7, "O*"), (8, "I*")):
        arms = {(0, 1), (1, 2), (2, 3)} | {(2, 4)} | {(3, 5)}
        if n >= 7:
            arms |= {(5, 6)}
        if n >= 8:
            arms |= {(6, 7)}
        g, _ = recognize_subgroup(list(range(n)), adj(arms))
        assert str(g) == want
    with pytest.raises(NotDynkin):
        recognize_subgroup([0, 1, 2], adj({(0, 1), (1, 2), (0, 2)}))
    # a path plus a disjoint triangle has two ends and no branch, yet is no A_6
    with pytest.raises(NotDynkin, match="disconnected"):
        recognize_subgroup(list(range(6)), adj({(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)}))


@pytest.mark.parametrize("g, edges", [
    (cyclic(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    (cyclic(7), [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]),
], ids=["C_6-two-triangles", "C_7-square-and-triangle"])
def test_mckay_graph_rejects_a_disconnected_shape(monkeypatch, g, edges):
    # every vertex has degree 2 and the marks hold, but the graph is no cycle
    a = [[0] * g.order for _ in range(g.order)]
    for i, j in edges:
        a[i][j] = a[j][i] = 1
    monkeypatch.setattr(mckay, "q_tensor_matrix", lambda _: tuple(map(tuple, a)))
    inserts = []
    real_insert = TrackedEchelon.insert
    monkeypatch.setattr(TrackedEchelon, "insert",
                        lambda self, vec, tag=None: inserts.append(tag) or real_insert(self, vec, tag))
    shape = "does not have the A~%d shape" % (g.order - 1)
    mckay_graph.cache_clear()
    mckay._two_minus_q.cache_clear()
    try:
        with pytest.raises(GraphShapeError, match=shape):
            mckay_graph(g)
        # the solver reads the graph through mckay_graph, so a fresh
        # factorization is refused by the same recognition before it starts
        mckay_graph.cache_clear()
        with pytest.raises(GraphShapeError, match=shape):
            mckay._two_minus_q(g)
    finally:
        mckay_graph.cache_clear()
        mckay._two_minus_q.cache_clear()
    assert inserts == []


def test_graphical_oracle_agrees_with_algebraic():
    for g in (T_STAR, O_STAR, I_STAR, binary_dihedral(5), binary_dihedral(8)):
        sg = s_graph(g)
        qs = {q.name: q for q in quaternionic_reps(g)}
        for a, b in sg.edges:
            for x, y in ((a, b), (b, a)):
                if sg.vertex(x).kind != "irreducible":
                    continue
                va = VirtualRep.of_quat(g, qs[y])
                vb = VirtualRep.of_quat(g, qs[x])
                h_alg = solve_rep_equation(g, va, vb)
                h_gra, sub, order = minimal_solution_graphical(g, va, vb)
                assert h_alg == h_gra
                assert 2 * h_alg.epsilon() % order == 0


@pytest.mark.parametrize("g", ACCEPT_GROUPS, ids=str)
def test_sgraph_matches_closed_form(g):
    ok, msg = s_graph_matches_expected(g)
    assert ok, msg


def test_sgraph_examples():
    sg = s_graph(I_STAR)
    assert sg.label("alpha", "theta") == 1
    assert sg.label("alpha", "beta") == 3 and sg.label("beta", "alpha") == 4
    sg = s_graph(T_STAR)
    assert sg.label("alpha", "lambda") == 3
    for n in (4, 6, 10):
        sg = s_graph(binary_dihedral(n))
        for k in range(1, n // 2):
            assert sg.label("alpha%d" % k, "alpha%d" % (k + 1)) == 2
            assert sg.label("alpha%d" % (k + 1), "alpha%d" % k) == 2


def test_unit_label_lemma():
    # whenever a doubled real character tensors with Q into an irreducible,
    # the corresponding edge label is 1
    for g in (O_STAR, binary_dihedral(4), binary_dihedral(7)):
        sg = s_graph(g)
        for a, b in sg.edges:
            for irr, other in ((a, b), (b, a)):
                if (
                    sg.vertex(irr).kind == "irreducible"
                    and sg.vertex(other).kind == "fully-reducible"
                ):
                    assert sg.label(irr, other) == 1


def test_path_additivity():
    # for non-adjacent vertices the minimal solution is the sum of the
    # edge solutions along the tree path
    for g in (O_STAR, I_STAR, binary_dihedral(6), cyclic(9)):
        sg = s_graph(g)
        qs = {q.name: q for q in quaternionic_reps(g)}
        names = [q.name for q in quaternionic_reps(g)]
        for a in names:
            for b in names:
                path = sg.path(a, b)
                if len(path) < 3:
                    continue
                va, vb = VirtualRep.of_quat(g, qs[a]), VirtualRep.of_quat(g, qs[b])
                total = solve_rep_equation(g, va, vb)
                acc = VirtualRep.zero(g)
                for x, y in zip(path, path[1:]):
                    acc = acc + solve_rep_equation(
                        g, VirtualRep.of_quat(g, qs[x]), VirtualRep.of_quat(g, qs[y])
                    )
                assert acc == total


def test_mirror_symmetry_of_even_dihedral_labels():
    for m in (2, 3, 4):
        g = binary_dihedral(2 * m)
        edges, labels, _ = expected_s_graph_data(g)
        sg = s_graph(g)
        assert sg.label("alpha1", "theta") == sg.label("alpha%d" % m, "eta2")
        assert sg.label("alpha1", "eta1") == sg.label("alpha%d" % m, "eta3")


@pytest.mark.parametrize("g", ACCEPT_GROUPS, ids=str)
def test_gradings(g):
    sg = s_graph(g)
    for v in sg.vertices:
        assert v.j % 4 == 0
        want_i = {"irreducible": (v.j - 3) % 8, "reducible": (v.j - 2) % 8,
                  "fully-reducible": v.j % 8}[v.kind]
        assert v.i == want_i
    for a, b in sg.edges:
        assert (sg.vertex(a).j - sg.vertex(b).j) % 8 == 4


def test_unsolvable_inputs():
    g = T_STAR
    bad = VirtualRep(g, [1, 0, 0, 0, 0, 0, 0])  # augmentation 1; not a difference
    with pytest.raises(Unsolvable, match="no solution"):
        solve_rep_equation(g, bad, VirtualRep.zero(g))
    # rho1 - rho0 on C_3 lies in the image of 2 - Q only over Q
    g = cyclic(3)
    with pytest.raises(Unsolvable, match="no integral solution"):
        solve_rep_equation(g, VirtualRep(g, [0, 1, 0]), VirtualRep(g, [1, 0, 0]))


def test_s_graph_rejects_a_disagreeing_oracle(monkeypatch):
    # the graphical oracle's H is compared, not only its subgroup order
    real = mckay.minimal_solution_graphical

    def off_by_regular(g, alpha, beta):
        h, sub, order = real(g, alpha, beta)
        return h + VirtualRep.regular(g), sub, order

    monkeypatch.setattr(mckay, "minimal_solution_graphical", off_by_regular)
    s_graph.cache_clear()
    try:
        with pytest.raises(LabelMismatch, match="graphical oracle"):
            s_graph(T_STAR)
    finally:
        s_graph.cache_clear()


def test_walk_counts_match_path_enumeration():
    # powers of the walk matrix count labeled walks through free orbits
    rng = random.Random(11)
    for g in (O_STAR, I_STAR, binary_dihedral(8)):
        sg = s_graph(g)
        names = [v.name for v in sg.vertices]
        irr = set(sg.irreducibles())

        def walks(src, r):
            # enumerate length-r walks src -> w through free-orbit vertices
            out = {}
            frontier = {src: 1}
            for _ in range(r):
                nxt = {}
                for v, c in frontier.items():
                    for w in sg.neighbors(v):
                        if w in irr and sg.label(w, v):
                            nxt[w] = nxt.get(w, 0) + c * sg.label(w, v)
                frontier = nxt
            return frontier

        psi = {w: {v: sg.label(w, v) for v in names if sg.label(w, v)} for w in irr}
        for src in names:
            vec = {src: 1}
            for r in range(1, 5):
                nxt = {}
                for v, c in vec.items():
                    for w, row in psi.items():
                        if v in row:
                            nxt[w] = nxt.get(w, 0) + c * row[v]
                vec = nxt
                assert vec == walks(src, r)


CACHE_GROUPS = (
    [cyclic(k) for k in range(2, 17)]
    + [binary_dihedral(k) for k in range(2, 13)]
    + [T_STAR, O_STAR, I_STAR]
)


def _solve_outcome(g, va, vb):
    try:
        return solve_rep_equation(g, va, vb)
    except BPFloerError as e:
        return "%s: %s" % (type(e).__name__, e)


def _factor_snapshot(factored):
    pos, echelon = factored
    return (dict(pos), {c: dict(row) for c, row in echelon.rows.items()},
            {c: (t, p, dict(steps)) for c, (t, p, steps) in echelon.multipliers.items()})


def test_cached_two_minus_q_matches_a_fresh_factorization():
    # the factorization of 2I - A without theta, with its leaves-first
    # positions, rows and recorded multipliers, is cached per group; solves
    # read it and never change it
    pairs = 0
    try:
        for g in CACHE_GROUPS:
            vecs = [VirtualRep.of_quat(g, q) for q in quaternionic_reps(g)]
            fresh = []
            for va in vecs:
                for vb in vecs:
                    mckay._two_minus_q.cache_clear()
                    fresh.append(_solve_outcome(g, va, vb))
            mckay._two_minus_q.cache_clear()
            factored = mckay._two_minus_q(g)
            before = _factor_snapshot(factored)
            warm = [_solve_outcome(g, va, vb) for va in vecs for vb in vecs]
            assert warm == fresh, g
            assert mckay._two_minus_q(g) is factored
            assert _factor_snapshot(factored) == before, g
            pairs += len(warm)
    finally:
        mckay._two_minus_q.cache_clear()
    assert pairs == 1066


def test_two_minus_q_is_factored_once_per_group(monkeypatch):
    from bpfloer.cs import cs_table

    g = binary_dihedral(12)
    n = len(character_table(g).irreps)
    tagged, sizes = [], []
    real_insert, real_kernel = TrackedEchelon.insert, TrackedEchelon.kernel_of_columns

    def insert(self, vec, tag=None):
        if tag is not None:
            tagged.append(tag)
        return real_insert(self, vec, tag)

    def kernel_of_columns(self, columns):
        sizes.append(len(columns))
        return real_kernel(self, columns)

    monkeypatch.setattr(TrackedEchelon, "insert", insert)
    monkeypatch.setattr(TrackedEchelon, "kernel_of_columns", kernel_of_columns)
    s_graph.cache_clear()
    mckay._two_minus_q.cache_clear()
    try:
        s_graph(g)
        cs_table(g)
    finally:
        s_graph.cache_clear()
        mckay._two_minus_q.cache_clear()
    # s_graph's label solves and cs_table's solves share one factorization:
    # one tagged insert per vertex but theta.  The graphical oracle walks the
    # graph in ints and factors nothing
    assert sorted(tagged) == list(range(1, n))
    assert sizes == []


DENSE_ROUTE_GROUPS = (
    [cyclic(k) for k in range(1, 65)]
    + [binary_dihedral(k) for k in range(2, 49)]
    + [T_STAR, O_STAR, I_STAR]
)


def _gauss_jordan(matrix):
    """One dense exact Gauss-Jordan over Fraction on [matrix | I], written
    here so that the references below share no code with the elimination
    kernel they check.  Returns (pivots, left): left * matrix is in reduced
    row echelon form, its leading 1s in the columns pivots, and the rows of
    left past the rank span the left kernel of matrix."""
    n, m = len(matrix), len(matrix[0])
    rows = [[Fraction(x) for x in r] + [Fraction(i == k) for k in range(n)]
            for i, r in enumerate(matrix)]
    pivots = []
    for j in range(m):
        lead = len(pivots)
        p = next((i for i in range(lead, n) if rows[i][j]), None)
        if p is None:
            continue
        rows[lead], rows[p] = rows[p], rows[lead]
        inv = 1 / rows[lead][j]
        rows[lead] = [x * inv for x in rows[lead]]
        nonzero = [(k, x) for k, x in enumerate(rows[lead]) if x]
        for i, r in enumerate(rows):
            if i != lead and r[j]:
                c = r[j]
                for k, x in nonzero:
                    r[k] -= c * x
        pivots.append(j)
    return pivots, [r[m:] for r in rows]


def _dense_solve(form, b):
    """(residue, x) for matrix * x = b, form being _gauss_jordan(matrix): x
    on the pivot columns, the free ones 0, and residue the entries of
    left * b past the rank, all zero iff b is in the column span."""
    pivots, left = form
    nonzero = [(k, x) for k, x in enumerate(b) if x]
    lb = [sum((r[k] * x for k, x in nonzero), Fraction(0)) for r in left]
    return lb[len(pivots):], dict(zip(pivots, lb))


def _dense_route_outcomes(g, vecs):
    """Each ordered pair's outcome by a dense route: all of 2I - A, theta
    included, solved by _gauss_jordan; then H_0 = 0 by the dimension vector,
    integrality, normalization and (2 - Q)H recomputed here.

    The solve is linear, so each vector is solved once: a pair is solvable
    iff its ends have the same residue, and its candidate H is the
    difference of their candidates, kept as ints over one common
    denominator."""
    a = q_tensor_matrix(g)
    n = len(a)
    dims = [ir.dim for ir in character_table(g).irreps]
    form = _gauss_jordan([[2 * (i == j) - a[j][i] for j in range(n)] for i in range(n)])
    residues, cands = [], []
    for v in vecs:
        residue, h = _dense_solve(form, v.coeffs)
        residues.append(residue)
        cands.append([h.get(i, 0) - h.get(0, 0) * d for i, d in enumerate(dims)])
    den = math.lcm(*(c.denominator for cand in cands for c in cand))
    nums = [[int(c * den) for c in cand] for cand in cands]
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    out = []
    for va, ra, na in zip(vecs, residues, nums):
        for vb, rb, nb in zip(vecs, residues, nums):
            if ra != rb:
                out.append("Unsolvable: no solution of the representation-ring equation")
                continue
            cand = [x - y for x, y in zip(na, nb)]
            if any(c % den for c in cand):
                out.append("Unsolvable: no integral solution of the representation-ring equation")
                continue
            ints = [c // den for c in cand]
            k = max(-(v // d) for v, d in zip(ints, dims))
            hh = [v + k * d for v, d in zip(ints, dims)]
            image = [2 * x for x in hh]
            for x, row in zip(hh, nonzero):
                for j, m in row:
                    image[j] -= x * m
            if image != [x - y for x, y in zip(va.coeffs, vb.coeffs)]:
                out.append("Unsolvable: verification of (2-Q)H failed")
            else:
                out.append(VirtualRep(g, hh))
    return out


@pytest.mark.parametrize("g", DENSE_ROUTE_GROUPS, ids=str)
def test_solve_matches_the_dense_gauss_jordan_route(g):
    vecs = [VirtualRep.of_quat(g, q) for q in quaternionic_reps(g)]
    got = [_solve_outcome(g, va, vb) for va in vecs for vb in vecs]
    assert got == _dense_route_outcomes(g, vecs)


def test_a_solve_makes_linearly_many_field_multiplications(monkeypatch):
    # forward and back substitution over the path 1..n-1 of C_n: 3n - 5
    # multiplications for lambda1 against theta, where a dense inverse makes
    # O(n^2); reduce pops each pivot entry instead of multiplying the row's 1
    # there, which would add n - 1
    counts = []
    for k in (64, 128):
        g = cyclic(k)
        va, vb = quat_vec(g, "lambda1"), quat_vec(g, "theta")
        mckay._two_minus_q(g)
        calls = []
        real = QQ.mul
        monkeypatch.setattr(QQ, "mul", lambda x, y: calls.append(1) or real(x, y))
        solve_rep_equation(g, va, vb)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts == [187, 379]


@pytest.mark.parametrize("g", DENSE_ROUTE_GROUPS, ids=str)
def test_mult_by_two_minus_q_matches_the_dense_product(g):
    a = q_tensor_matrix(g)
    n = len(a)
    rng = random.Random(str(g))
    for _ in range(3):
        c = [rng.randint(-5, 5) * (rng.random() < 0.5) for _ in range(n)]
        dense = [2 * c[j] - sum(c[i] * a[i][j] for i in range(n)) for j in range(n)]
        assert VirtualRep(g, c).mult_by_two_minus_q() == VirtualRep(g, dense)


def test_a_corrupted_multiplier_is_caught_by_the_certificate(monkeypatch):
    # T*: rho3's row subtracted the row of the leaf rho2 once (multiplier -1),
    # and rho2's pivot is 2.  Recording -3 moves H at rho2 alone by H at rho3:
    # H stays integral and still meets the dropped row-0 equation (theta's
    # one neighbour is rho4), so only the exact certificate can see it
    g = T_STAR
    names = [ir.name for ir in character_table(g).irreps]
    pos, echelon = mckay._two_minus_q(g)
    rho2, rho3 = pos[names.index("rho2")], pos[names.index("rho3")]
    steps = echelon.multipliers[rho3][2]
    assert steps == {rho2: -1} and echelon.multipliers[rho2][1] == Fraction(1, 2)
    monkeypatch.setitem(steps, rho2, -3)
    with pytest.raises(Unsolvable, match=r"verification of \(2-Q\)H failed"):
        solve_rep_equation(g, quat_vec(g, "alpha"), quat_vec(g, "theta"))
    s_graph.cache_clear()
    try:
        with pytest.raises((Unsolvable, LabelMismatch)):
            s_graph(g)
    finally:
        s_graph.cache_clear()


@pytest.mark.parametrize("g", [T_STAR, O_STAR, I_STAR, binary_dihedral(5), cyclic(9)], ids=str)
def test_a_corrupted_multiplier_never_returns_a_wrong_h(monkeypatch, g):
    # bump each recorded multiple and each pivot inverse in turn: every pair
    # either still gets the right H or raises Unsolvable
    vecs = [VirtualRep.of_quat(g, q) for q in quaternionic_reps(g)]
    pairs = [(va, vb) for va in vecs for vb in vecs]
    right = [solve_rep_equation(g, va, vb) for va, vb in pairs]
    _, echelon = mckay._two_minus_q(g)
    for c, (tag, p_inv, steps) in list(echelon.multipliers.items()):
        corruptions = [(echelon.multipliers, c, (tag, p_inv + 1, steps))]
        corruptions += [(steps, r, m + 1) for r, m in steps.items()]
        for where, key, bad in corruptions:
            with monkeypatch.context() as patch:
                patch.setitem(where, key, bad)
                for (va, vb), h in zip(pairs, right):
                    try:
                        assert solve_rep_equation(g, va, vb) == h
                    except Unsolvable:
                        pass


def test_two_minus_q_rejects_a_graph_that_is_not_a_dynkin_tree(monkeypatch):
    # theta, then a 4-cycle, as C_5's McKay matrix: theta has no neighbour, so
    # mckay_graph's mark check refuses it before anything is factored
    g = cyclic(5)
    cycle = [[0] * 5 for _ in range(5)]
    for i, j in ((1, 2), (2, 3), (3, 4), (1, 4)):
        cycle[i][j] = cycle[j][i] = 1
    monkeypatch.setattr(mckay, "q_tensor_matrix", lambda _: tuple(map(tuple, cycle)))
    mckay_graph.cache_clear()
    try:
        with pytest.raises(GraphShapeError, match="mark property fails"):
            mckay._two_minus_q.__wrapped__(g)
    finally:
        mckay_graph.cache_clear()
    # theta, then a star with four leaves: a tree whose Cartan matrix is
    # singular, which mckay_graph's recognition never passes; handed over as
    # a graph it still meets the singular-pivot guard
    star = ((),) + (((5, 1),),) * 4 + (((1, 1), (2, 1), (3, 1), (4, 1)),)
    monkeypatch.setattr(mckay, "mckay_graph",
                        lambda _: mckay.McKayGraph(g, None, star, (1,) * 6, 0, "A~4"))
    with pytest.raises(GraphShapeError, match="minus theta is singular"):
        mckay._two_minus_q.__wrapped__(g)


ORACLE_GROUPS = (
    [cyclic(k) for k in range(1, 17)]
    + [binary_dihedral(k) for k in range(2, 17)]
    + [T_STAR, O_STAR, I_STAR]
)


def _cartan_route(g, alpha, beta, factored):
    """The deletion oracle's outcome by linear algebra, as its reference:
    delete beta's vertices from the dense McKay matrix, take the component of
    alpha's surviving vertices, recognize it, and solve its Cartan system
    (2I - A)h = alpha there by _gauss_jordan; h must be integral and
    positive on the component.  factored caches each component's form."""
    a = q_tensor_matrix(g)
    n = len(a)
    keep = [i for i in range(n) if not beta.coeffs[i]]
    comp = set()
    stack = [v for v in keep if alpha.coeffs[v]]
    if not stack:
        raise BPFloerError("alpha deleted entirely")
    while stack:
        v = stack.pop()
        if v not in comp:
            comp.add(v)
            stack.extend(w for w in keep if a[v][w] and w not in comp)
    comp = tuple(sorted(comp))
    sub, order = recognize_subgroup(comp, lambda v: [w for w in comp if a[v][w]])
    pos = {v: i for i, v in enumerate(comp)}
    if comp not in factored:
        factored[comp] = _gauss_jordan(
            [[2 * (v == w) - (a[v][w] != 0) for w in comp] for v in comp])
    residue, h = _dense_solve(factored[comp], [alpha.coeffs[v] for v in comp])
    if any(residue):
        raise Unsolvable("singular Cartan system")
    coeffs = [0] * n
    for v in comp:
        val = Fraction(h.get(pos[v], 0))
        if val.denominator != 1 or val <= 0:
            raise Unsolvable("bad weight %s" % val)
        coeffs[v] = int(val)
    return VirtualRep(g, coeffs), sub, order


def _oracle_outcome(route, *args):
    try:
        return route(*args)
    except BPFloerError as e:
        return type(e)


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=str)
def test_deletion_oracle_matches_the_cartan_route(g):
    # every ordered pair of flat connections, and of the unit, doubled-unit
    # and zero vectors: the same (H, subgroup, order) or the same exception
    n = len(character_table(g).irreps)
    flat = [VirtualRep.of_quat(g, q) for q in quaternionic_reps(g)]
    units = [VirtualRep(g, [k * (i == v) for i in range(n)]) for v in range(n) for k in (1, 2)]
    units.append(VirtualRep.zero(g))
    factored, reference = {}, {}
    kinds = set()
    for vecs in (flat, units):
        for va in vecs:
            for vb in vecs:
                got = _oracle_outcome(minimal_solution_graphical, g, va, vb)
                # the reference reads beta only through its support
                key = (va.coeffs, tuple(i for i, c in enumerate(vb.coeffs) if c))
                if key not in reference:
                    reference[key] = _oracle_outcome(_cartan_route, g, va, vb, factored)
                assert got == reference[key], (va, vb)
                kinds.add(got if isinstance(got, type) else tuple)
    assert tuple in kinds


def test_deletion_oracle_requires_a_positive_h():
    # C_4 minus theta is the path rho1 - rho2 - rho3; 2 rho1 - rho2 has the
    # integral solution H = rho1, which vanishes on the rest of the component
    g = cyclic(4)
    alpha, beta = VirtualRep(g, [0, 2, -1, 0]), VirtualRep(g, [1, 0, 0, 0])
    with pytest.raises(Unsolvable, match="zero weight"):
        minimal_solution_graphical(g, alpha, beta)
    with pytest.raises(Unsolvable, match="bad weight 0"):
        _cartan_route(g, alpha, beta, {})
