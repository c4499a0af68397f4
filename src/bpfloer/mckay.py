"""McKay graphs, quotient graphs, the labeled graphs on flat connections,
and the representation-ring equation solver.

The McKay graph is held once, as the sparse rows of the matrix mckay_graph
certifies; every walk and solve reads it there.  The edge labels are solved
algebraically (representation-ring equation plus regular-representation
normalization): 2I - A without the trivial vertex is factored once per group
on sparse.TrackedEchelon, leaves first, and each right-hand side is one O(n)
substitution (TrackedEchelon.solve).  The graphical deletion procedure is a
separate oracle on adjacent pairs: s_graph compares its H with the algebraic
one on every labeled edge and takes the subgroup order from it.  The oracle
runs no elimination (it raises H vertex by vertex in ints on the component
left after deleting beta), so the two routes share only the graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BPFloerError, GraphShapeError, LabelMismatch, NotDynkin, Unsolvable
from .fields import QQ
from .groups import (
    CYCLIC,
    IRREDUCIBLE,
    ORBITS,
    GroupId,
    binary_dihedral,
    character_table,
    cyclic,
    q_tensor_matrix,
    quaternionic_reps,
    GroupId as _G,
)
from .groups import ICOSA, OCTA, TETRA
from .sparse import TrackedEchelon


class VirtualRep:
    """An integer vector over the irreducible characters of a fixed group."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GroupId, coeffs):
        self.group = group
        self.coeffs = tuple(int(c) for c in coeffs)
        if len(self.coeffs) != len(character_table(group).irreps):
            raise BPFloerError("coefficient count mismatch for %s" % group)

    @classmethod
    def zero(cls, group):
        return cls(group, [0] * len(character_table(group).irreps))

    @classmethod
    def of_quat(cls, group, quat):
        vec = [0] * len(character_table(group).irreps)
        for i, m in quat.components:
            vec[i] += m
        return cls(group, vec)

    @classmethod
    def regular(cls, group):
        return cls(group, [ir.dim for ir in character_table(group).irreps])

    def __add__(self, other):
        return VirtualRep(self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return VirtualRep(self.group, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def epsilon(self):
        """Augmentation: total complex dimension."""
        dims = [ir.dim for ir in character_table(self.group).irreps]
        return sum(a * d for a, d in zip(self.coeffs, dims))

    def is_actual(self):
        return all(a >= 0 for a in self.coeffs)

    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

    def mult_by_two_minus_q(self):
        """Multiplication by (2 - Q) in the representation ring, in exact ints
        over the nonzero McKay entries: O(n + edges)."""
        out = [2 * c for c in self.coeffs]
        for c, row in zip(self.coeffs, mckay_graph(self.group).rows):
            if c:
                for j, a in row:
                    out[j] -= c * a
        return VirtualRep(self.group, out)

    def __eq__(self, other):
        return isinstance(other, VirtualRep) and other.group == self.group and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.group, self.coeffs))

    def __repr__(self):
        names = [ir.name for ir in character_table(self.group).irreps]
        terms = ["%d*%s" % (c, n) for c, n in zip(self.coeffs, names) if c]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class McKayGraph:
    group: GroupId
    adjacency: tuple          # tuple of tuples, multiplicities
    rows: tuple               # per vertex i, its nonzero entries ((j, a_ij), ...)
    dims: tuple
    trivial: int
    dynkin_type: str          # "A~0", "A~1", "A~n", "D~n", "E~6", "E~7", "E~8"

    def neighbors(self, i):
        return [j for j, _ in self.rows[i]]


@lru_cache(maxsize=None)
def mckay_graph(g: GroupId) -> McKayGraph:
    t = character_table(g)
    a = q_tensor_matrix(g)
    rows = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in a)
    # a zero entry opposite a nonzero one shows up in the nonzero one's row
    for i, row in enumerate(rows):
        for j, x in row:
            if a[j][i] != x:
                raise GraphShapeError("McKay matrix not symmetric for %s" % g)
    dims = tuple(ir.dim for ir in t.irreps)
    # dims spans the kernel of 2I - A (the marks); A is symmetric, so rows do
    for j, row in enumerate(rows):
        if sum(x * dims[i] for i, x in row) != 2 * dims[j]:
            raise GraphShapeError("mark property fails for %s" % g)
    if g.family == CYCLIC and g.param <= 2:
        # degenerate affine A_0 (loop) and A_1 (double bond) cases
        tag = "A~0" if g.param == 1 else "A~1"
        return McKayGraph(g, a, rows, dims, 0, tag)
    for i, row in enumerate(rows):
        if a[i][i] != 0:
            raise GraphShapeError("self-adjacency in the McKay graph of %s" % g)
        for _, x in row:
            if x != 1:
                raise GraphShapeError("multiplicity %d edge in %s" % (x, g))
    if g.family == CYCLIC:
        want = "A~%d" % (g.param - 1)
    elif g.family == "D":
        want = "D~%d" % (g.param + 2)
    else:
        want = {TETRA: "E~6", OCTA: "E~7", ICOSA: "E~8"}[g.family]
    m = McKayGraph(g, a, rows, dims, 0, want)
    # the graph minus the trivial vertex is g's own finite Dynkin diagram
    try:
        ok = recognize_subgroup(range(1, len(rows)), m.neighbors)[0] == g
    except NotDynkin:
        ok = False
    if not ok:
        raise GraphShapeError("graph of %s does not have the %s shape" % (g, want))
    return m


@dataclass(frozen=True)
class QuotientGraph:
    """Vertices are dual-involution orbits of McKay vertices."""

    group: GroupId
    orbits: tuple             # tuple of sorted tuples of irreducible indices
    adjacency: tuple          # 0/1 matrix on orbits
    loops: tuple              # orbit indices carrying a self-loop

    def orbit_of(self, irr_index):
        for k, orb in enumerate(self.orbits):
            if irr_index in orb:
                return k
        raise BPFloerError("index %d not found" % irr_index)


def quotient_graph(m: McKayGraph, iota) -> QuotientGraph:
    n = len(m.dims)
    seen = set()
    orbits = []
    for i in range(n):
        if i in seen:
            continue
        orb = tuple(sorted({i, iota[i]}))
        seen.update(orb)
        orbits.append(orb)
    orbits = tuple(orbits)
    idx = {}
    for k, orb in enumerate(orbits):
        for i in orb:
            idx[i] = k
    size = len(orbits)
    adj = [[0] * size for _ in range(size)]
    loops = set()
    for i, row in enumerate(m.rows):
        for j, _ in row:
            a, b = idx[i], idx[j]
            if a == b:
                loops.add(a)
            else:
                adj[a][b] = adj[b][a] = 1
    return QuotientGraph(m.group, orbits, tuple(tuple(r) for r in adj), tuple(sorted(loops)))


def _leaves_first(g: GroupId):
    """The vertices of the McKay graph other than theta (vertex 0), each a
    leaf of the graph on itself and the vertices after it.

    Leaves are peeled in the order they appear, so the last vertex, the root,
    sits in the middle of the tree.  Eliminating a tree in this order makes
    no fill (Rose 1970): a vertex meets at most one later vertex, its parent.
    mckay_graph has certified that the graph minus theta is a tree.
    """
    rows = mckay_graph(g).rows
    nbrs = {v: [w for w, _ in rows[v] if w] for v in range(1, len(rows))}
    left = {v: len(ws) for v, ws in nbrs.items()}
    order = [v for v, k in left.items() if k <= 1]
    for v in order:  # a vertex joins the order when it becomes a leaf
        for w in nbrs[v]:
            left[w] -= 1
            if left[w] == 1:
                order.append(w)
    return order


@lru_cache(maxsize=None)
def _two_minus_q(g: GroupId):
    """2I - A without the trivial vertex, factored once per group and shared
    by every solve_rep_equation call; returns (position of each vertex, the
    echelon).

    mckay_graph's recognition refuses, before any factorization, a graph
    that minus theta is not g's own finite Dynkin tree.  Positions follow the
    leaves-first order, so the echelon's smallest-column pivot rule
    eliminates leaves first.  Each vertex's column of the tree's Cartan
    matrix is a tagged insert (tag: the vertex); its row pivots at the
    vertex's position, has at most one other entry (at the parent's), and its
    multipliers name the children.  A row that pivots elsewhere means the
    system is singular.
    """
    a = mckay_graph(g).rows
    order = _leaves_first(g)
    pos = {v: k for k, v in enumerate(order)}
    echelon = TrackedEchelon(QQ)
    for v in order:
        col = {pos[v]: 2}
        for w, x in a[v]:
            if w:
                col[pos[w]] = -x
        if echelon.insert(col, tag=v) != pos[v]:
            raise GraphShapeError("2I - A of %s minus theta is singular" % g)
    return pos, echelon


def solve_rep_equation(g: GroupId, alpha: VirtualRep, beta: VirtualRep) -> VirtualRep:
    """Minimal positive solution of (2 - Q) H = alpha - beta.

    The kernel of 2I - A is spanned by the dimension vector, whose trivial
    entry is 1, so H_0 = 0 fixes a representative: H solves the system
    without the trivial vertex (one O(n) solve of _two_minus_q), and the
    dropped row-0 equation is checked exactly.  H is then required to be
    integral, normalized by subtracting the largest multiple of the regular
    representation preserving nonnegativity, and certified by recomputing
    (2 - Q)H exactly.
    """
    rhs = (alpha - beta).coeffs
    pos, echelon = _two_minus_q(g)
    _, h = echelon.solve({pos[v]: rhs[v] for v in pos})  # every position pivots
    # row 0 of (2I - A)H, with H_0 = 0
    if -sum(x * h.get(j, 0) for j, x in mckay_graph(g).rows[0]) != rhs[0]:
        raise Unsolvable("no solution of the representation-ring equation")
    cand = [h.get(i, 0) for i in range(len(rhs))]
    if any(c.denominator != 1 for c in cand):
        raise Unsolvable("no integral solution of the representation-ring equation")
    dims = [ir.dim for ir in character_table(g).irreps]
    ints = [int(c) for c in cand]
    k = max(-(v // d) for v, d in zip(ints, dims))
    out = VirtualRep(g, [v + k * d for v, d in zip(ints, dims)])
    if not out.is_actual():
        raise Unsolvable("normalization failed to reach a nonnegative solution")
    if out.mult_by_two_minus_q() != alpha - beta:
        raise Unsolvable("verification of (2-Q)H failed")
    return out


def recognize_subgroup(vertices, neighbors):
    """Classify a connected simply-laced Dynkin graph; returns (GroupId, order).

    neighbors(v) lists the vertices adjacent to v; those outside vertices are
    ignored, so the cost is O(V + E).
    A_n -> C_{n+1}, D_n -> D*_{n-2}, E6/E7/E8 -> T*/O*/I*.
    """
    n = len(vertices)
    if n == 0:
        raise NotDynkin("empty component")
    inside = set(vertices)
    nbrs = {v: [w for w in neighbors(v) if w in inside] for v in vertices}
    if len(_tree_paths(vertices[0], nbrs.__getitem__)) != n:
        raise NotDynkin("disconnected vertex set")
    deg = {v: len(nbrs[v]) for v in vertices}
    branch = [v for v in vertices if deg[v] >= 3]
    if any(deg[v] > 3 for v in vertices):
        raise NotDynkin("vertex of degree > 3")
    if not branch:
        ends = [v for v in vertices if deg[v] <= 1]
        if n == 1:
            g = cyclic(2)
            return g, g.order
        if len(ends) != 2:
            raise NotDynkin("cycle is not a Dynkin graph")
        g = cyclic(n + 1)
        return g, g.order
    if len(branch) != 1:
        raise NotDynkin("more than one branch vertex")
    b = branch[0]
    # walk the three arms
    arms = []
    for w in nbrs[b]:
        length = 1
        prev, cur = b, w
        while True:
            nxt = [u for u in nbrs[cur] if u != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise NotDynkin("nested branching")
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if len(arms) != 3 or 1 + sum(arms) != n:
        raise NotDynkin("arm structure does not cover the component")
    if arms[0] == arms[1] == 1:
        g = binary_dihedral(n - 2)
        return g, g.order
    if arms == [1, 2, 2]:
        return _G(TETRA), 24
    if arms == [1, 2, 3]:
        return _G(OCTA), 48
    if arms == [1, 2, 4]:
        return _G(ICOSA), 120
    raise NotDynkin("arms %r are not of ADE type" % (arms,))


def minimal_solution_graphical(g: GroupId, alpha, beta):
    """Deletion-procedure oracle for adjacent pairs; returns (H, subgroup, order).

    Deletes beta's vertices from the McKay graph; the components reached from
    alpha's surviving vertices must form one finite Dynkin diagram, which
    recognize_subgroup checks before any arithmetic (the loop below would not
    stop on an affine component).  Then, in ints, from H = 0: while some v has
    shortfall s = alpha_v - (2 H_v - sum_{w ~ v} H_w) > 0, raise H_v by
    ceil(s/2) and requeue v's neighbours.  On a finite Dynkin diagram
    (2I - A)^-1 >= 0 (Kac, Infinite-dimensional Lie algebras, ch. 4), so
    integral H* with (2I - A)H* >= alpha exist (adj(2I - A) max(alpha, 0)).
    No raise passes one: if H <= H* and v is short, then
    2 H*_v >= alpha_v + sum_{w ~ v} H*_w >= s + 2 H_v.  So the loop stops at
    the least such H*, which is the solution if that is integral; the
    equations must hold with H > 0, else Unsolvable.  No elimination runs:
    this shares only the graph with solve_rep_equation.
    """
    rows = mckay_graph(g).rows
    beta_vs = {i for i, c in enumerate(beta.coeffs) if c}
    nbrs = {v: [w for w, _ in row if w not in beta_vs] for v, row in enumerate(rows)}
    starts = [i for i, c in enumerate(alpha.coeffs) if c and i not in beta_vs]
    if not starts:
        raise BPFloerError("alpha deleted entirely; pair is not adjacent")
    comp = set()
    for v in starts:
        comp.update(_tree_paths(v, nbrs.__getitem__))
    comp = sorted(comp)
    sub, order = recognize_subgroup(comp, nbrs.__getitem__)

    def shortfall(v):
        return alpha.coeffs[v] - 2 * h[v] + sum(h[w] for w in nbrs[v])

    h = [0] * len(rows)
    queue = [v for v in comp if alpha.coeffs[v] > 0]  # the only shortfalls at H = 0
    while queue:
        v = queue.pop()
        s = shortfall(v)
        if s > 0:
            h[v] += (s + 1) // 2
            queue.extend(nbrs[v])
    if any(shortfall(v) for v in comp):
        raise Unsolvable("the graphical solve has no integral solution")
    if any(h[v] <= 0 for v in comp):
        raise Unsolvable("graphical solve produced a zero weight")
    return VirtualRep(g, h), sub, order


@dataclass(frozen=True)
class SVertex:
    name: str
    kind: str
    j: int          # grading for the reversed orientation, mod 8 (0 or 4)
    i: int          # grading for the standard orientation, mod 8


class SGraph:
    """The labeled graph on 1-dimensional quaternionic representations."""

    def __init__(self, group, vertices, edges, labels):
        self.group = group
        self.vertices = tuple(vertices)          # SVertex, theta first
        self.edges = tuple(edges)                # (name, name) pairs
        self.labels = dict(labels)               # (irr name, other name) -> int
        self._by_name = {v.name: v for v in self.vertices}
        self._neighbors = _neighbor_lists(self.edges)

    def vertex(self, name):
        return self._by_name[name]

    def neighbors(self, name):
        """The vertices joined to name, in edge order."""
        return self._neighbors.get(name, ())

    def label(self, target, source):
        """n_{target,source}: coefficient of the differential into target."""
        return self.labels.get((target, source), 0)

    def path(self, a, b):
        """Unique simple path between two vertices (the graph is a tree)."""
        paths = _tree_paths(a, self.neighbors)
        if b not in paths:
            raise BPFloerError("no path from %s to %s" % (a, b))
        return paths[b]

    def irreducibles(self):
        return [v.name for v in self.vertices if v.kind == IRREDUCIBLE]


def _neighbor_lists(edges):
    """{vertex: tuple of its neighbours in edge order} of an edge list."""
    out = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
        out.setdefault(b, []).append(a)
    return {v: tuple(ws) for v, ws in out.items()}


def _tree_paths(root, neighbors):
    """Breadth-first walk from root: {vertex: path from root to it} for every
    vertex reached; neighbors(v) lists the vertices adjacent to v."""
    paths = {root: [root]}
    queue = [root]
    for v in queue:  # the queue grows as it is walked
        for w in neighbors(v):
            if w not in paths:
                paths[w] = paths[v] + [w]
                queue.append(w)
    return paths


@lru_cache(maxsize=None)
def s_graph(g: GroupId) -> SGraph:
    table = character_table(g)
    quats = quaternionic_reps(g)
    by_name = {q.name: q for q in quats}
    edges = []
    if g.family == CYCLIC:
        # authoritative chain; the odd-l quotient graph has a loop at the end
        chain = [q.name for q in quats]
        edges = list(zip(chain, chain[1:]))
    else:
        m = mckay_graph(g)
        quo = quotient_graph(m, table.iota)
        # orbit index of each quaternionic rep
        loc = {}
        for q in quats:
            verts = sorted({i for i, _ in q.components})
            loc[q.name] = quo.orbit_of(verts[0])
        quat_orbits = set(loc.values())

        orbit_neighbors = [[w for w, x in enumerate(row) if x] for row in quo.adjacency]
        names = [q.name for q in quats]
        for x in range(len(names)):
            paths = _tree_paths(loc[names[x]], orbit_neighbors.__getitem__)
            for y in range(x + 1, len(names)):
                p = paths[loc[names[y]]]
                if all(v not in quat_orbits for v in p[1:-1]):
                    edges.append((names[x], names[y]))
    # gradings from tree distance to theta
    adj = _neighbor_lists(edges)
    from_theta = _tree_paths("theta", lambda v: adj.get(v, ()))
    vertices = []
    for q in quats:
        j = (4 * (len(from_theta[q.name]) - 1)) % 8
        vertices.append(SVertex(q.name, q.kind, j, (j - ORBITS[q.kind].delta) % 8))
    # labels on edges with an irreducible endpoint
    labels = {}
    for a, b in edges:
        for tgt, src in ((a, b), (b, a)):
            if by_name[tgt].kind != IRREDUCIBLE:
                continue
            va = VirtualRep.of_quat(g, by_name[src])
            vb = VirtualRep.of_quat(g, by_name[tgt])
            h = solve_rep_equation(g, va, vb)
            oracle, _, order = minimal_solution_graphical(g, va, vb)
            if oracle != h:
                raise LabelMismatch("graphical oracle H = %r, algebraic H = %r" % (oracle, h))
            num = 2 * h.epsilon()
            if num % order != 0:
                raise LabelMismatch("label 2*%d/%d is not integral" % (h.epsilon(), order))
            labels[(tgt, src)] = num // order
    return SGraph(g, vertices, edges, labels)


def expected_s_graph_data(g: GroupId):
    """The closed-form labeled graphs, encoded family by family.

    Returns (edges, labels, gradings j) in the same naming scheme as s_graph;
    used as golden data by the verification layer.
    """
    fam = g.family
    edges, labels, dist = [], {}, {}
    if fam == CYCLIC:
        l = g.param
        if l == 1:
            chain = ["theta"]
        elif l % 2 == 0:
            chain = ["theta"] + ["lambda%d" % k for k in range(1, l // 2)] + (
                ["eta"] if l >= 2 else []
            )
        else:
            chain = ["theta"] + ["lambda%d" % k for k in range(1, (l - 1) // 2 + 1)]
        edges = list(zip(chain, chain[1:]))
        dist = {v: k for k, v in enumerate(chain)}
    elif fam == "D":
        n = g.param
        m = n // 2
        if n % 2 == 0:
            chain = ["alpha%d" % k for k in range(1, m + 1)]
            edges = [("theta", "alpha1"), ("eta1", "alpha1")]
            edges += list(zip(chain, chain[1:]))
            edges += [("alpha%d" % m, "eta2"), ("alpha%d" % m, "eta3")]
            labels = {("alpha1", "theta"): 1, ("alpha1", "eta1"): 1}
            for k in range(1, m):
                labels[("alpha%d" % k, "alpha%d" % (k + 1))] = 2
                labels[("alpha%d" % (k + 1), "alpha%d" % k)] = 2
            labels[("alpha%d" % m, "eta2")] = 1
            labels[("alpha%d" % m, "eta3")] = 1
            dist = {"theta": 0, "eta1": 0}
            for k in range(1, m + 1):
                dist["alpha%d" % k] = k
            dist["eta2"] = dist["eta3"] = m + 1
        else:
            m = (n - 1) // 2
            chain = ["alpha%d" % k for k in range(1, m + 1)]
            edges = [("theta", "alpha1"), ("eta", "alpha1")]
            edges += list(zip(chain, chain[1:]))
            edges += [("alpha%d" % m, "lambda")]
            labels = {("alpha1", "theta"): 1, ("alpha1", "eta"): 1}
            for k in range(1, m):
                labels[("alpha%d" % k, "alpha%d" % (k + 1))] = 2
                labels[("alpha%d" % (k + 1), "alpha%d" % k)] = 2
            labels[("alpha%d" % m, "lambda")] = 2
            dist = {"theta": 0, "eta": 0}
            for k in range(1, m + 1):
                dist["alpha%d" % k] = k
            dist["lambda"] = m + 1
    elif fam == TETRA:
        edges = [("theta", "alpha"), ("alpha", "lambda")]
        labels = {("alpha", "theta"): 1, ("alpha", "lambda"): 3}
        dist = {"theta": 0, "alpha": 1, "lambda": 2}
    elif fam == OCTA:
        edges = [("theta", "alpha"), ("alpha", "beta"), ("beta", "eta")]
        labels = {
            ("alpha", "theta"): 1,
            ("alpha", "beta"): 3,
            ("beta", "alpha"): 3,
            ("beta", "eta"): 1,
        }
        dist = {"theta": 0, "alpha": 1, "beta": 2, "eta": 3}
    else:
        edges = [("theta", "alpha"), ("alpha", "beta")]
        labels = {("alpha", "theta"): 1, ("alpha", "beta"): 3, ("beta", "alpha"): 4}
        dist = {"theta": 0, "alpha": 1, "beta": 2}
    gradings = {v: (4 * d) % 8 for v, d in dist.items()}
    return edges, labels, gradings


def s_graph_matches_expected(g: GroupId):
    """Exact comparison of the computed labeled graph with the closed form."""
    sg = s_graph(g)
    edges, labels, gradings = expected_s_graph_data(g)
    norm = lambda es: {tuple(sorted(e)) for e in es}
    if norm(sg.edges) != norm(edges):
        return False, "edge sets differ"
    if dict(sg.labels) != labels:
        diff = set(sg.labels.items()) ^ set(labels.items())
        return False, "labels differ: %r" % (sorted(diff),)
    for v in sg.vertices:
        if gradings[v.name] != v.j:
            return False, "grading of %s differs" % v.name
    return True, "ok"
