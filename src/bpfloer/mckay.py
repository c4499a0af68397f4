"""McKay graphs, quotient graphs, the labeled graphs on flat connections,
and the representation-ring equation solver.

The edge labels are computed algebraically (exact linear solve of the
representation-ring equation plus regular-representation normalization); the
graphical deletion procedure is implemented separately as a cross-check
oracle on adjacent pairs: s_graph compares the oracle's H with the algebraic
solution on every labeled edge and takes the subgroup order from the oracle.
Both solves run on sparse.TrackedEchelon, by different methods on different
systems.  The algebraic solve factors 2I - A without the trivial vertex once
per group, leaves first with recorded multipliers, and each right-hand side
is one O(n) forward and back substitution (TrackedEchelon.solve).  The oracle
factors the component's own Cartan matrix afresh on each call by
kernel_of_columns and reads its solution off the tag combinations reduce
accumulates.  The two routes share neither a system nor an elimination
method.
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
        for c, row in zip(self.coeffs, _mckay_rows(self.group)):
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
    dims: tuple
    trivial: int
    dynkin_type: str          # "A~0", "A~1", "A~n", "D~n", "E~6", "E~7", "E~8"

    def neighbors(self, i):
        return [j for j, a in enumerate(self.adjacency[i]) if a]


@lru_cache(maxsize=None)
def mckay_graph(g: GroupId) -> McKayGraph:
    t = character_table(g)
    a = q_tensor_matrix(g)
    n = len(t.irreps)
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise GraphShapeError("McKay matrix not symmetric for %s" % g)
    dims = tuple(ir.dim for ir in t.irreps)
    # the dims vector spans the kernel of 2I - A (the extended Dynkin marks)
    for j in range(n):
        if sum(a[i][j] * dims[i] for i in range(n)) != 2 * dims[j]:
            raise GraphShapeError("mark property fails for %s" % g)
    if g.family == CYCLIC and g.param <= 2:
        # degenerate affine A_0 (loop) and A_1 (double bond) cases
        tag = "A~0" if g.param == 1 else "A~1"
        return McKayGraph(g, a, dims, 0, tag)
    for i in range(n):
        if a[i][i] != 0:
            raise GraphShapeError("self-adjacency in the McKay graph of %s" % g)
        for j in range(n):
            if a[i][j] not in (0, 1):
                raise GraphShapeError("multiplicity %d edge in %s" % (a[i][j], g))
    if g.family == CYCLIC:
        want = "A~%d" % (g.param - 1)
    elif g.family == "D":
        want = "D~%d" % (g.param + 2)
    else:
        want = {TETRA: "E~6", OCTA: "E~7", ICOSA: "E~8"}[g.family]
    # the graph minus the trivial vertex is g's own finite Dynkin diagram
    try:
        ok = recognize_subgroup(range(1, n), lambda i, j: a[i][j])[0] == g
    except NotDynkin:
        ok = False
    if not ok:
        raise GraphShapeError("graph of %s does not have the %s shape" % (g, want))
    return McKayGraph(g, a, dims, 0, want)


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
    for i in range(n):
        for j in range(n):
            if m.adjacency[i][j]:
                a, b = idx[i], idx[j]
                if a == b:
                    loops.add(a)
                else:
                    adj[a][b] = adj[b][a] = 1
    return QuotientGraph(m.group, orbits, tuple(tuple(r) for r in adj), tuple(sorted(loops)))


@lru_cache(maxsize=None)
def _mckay_rows(g: GroupId):
    """The nonzero McKay multiplicities of each row i: ((j, a_ij), ...)."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in q_tensor_matrix(g))


def _leaves_first(g: GroupId):
    """The vertices of the McKay graph other than theta (vertex 0), each a
    leaf of the graph on itself and the vertices after it.

    Leaves are peeled in the order they appear, so the last vertex, the root,
    sits in the middle of the tree.  Eliminating a tree in this order makes
    no fill (Rose 1970): a vertex meets at most one later vertex, its parent.
    Raises GraphShapeError if the graph minus theta is not a tree.
    """
    rows = _mckay_rows(g)
    nbrs = {v: [w for w, x in rows[v] if w] for v in range(1, len(rows))}
    simple = all(x == 1 and w != v for v in nbrs for w, x in rows[v] if w)
    edges = sum(map(len, nbrs.values())) // 2
    left = {v: len(ws) for v, ws in nbrs.items()}
    order = [v for v, k in left.items() if k <= 1]
    for v in order:  # a vertex joins the order when it becomes a leaf
        for w in nbrs[v]:
            left[w] -= 1
            if left[w] == 1:
                order.append(w)
    # all peeled: no cycle; one edge fewer than vertices: connected
    if not simple or len(order) != len(nbrs) or edges != max(len(nbrs) - 1, 0):
        raise GraphShapeError("the McKay graph of %s minus theta is not a tree" % g)
    return order


@lru_cache(maxsize=None)
def _two_minus_q(g: GroupId):
    """2I - A without the trivial vertex, factored once per group and shared
    by every solve_rep_equation call; returns (position of each vertex, the
    echelon).

    Positions follow the leaves-first order, so the echelon's smallest-column
    pivot rule eliminates leaves first.  Each vertex's column of the tree's
    Cartan matrix is a tagged insert (tag: the vertex); its row pivots at the
    vertex's position, has at most one other entry (at the parent's), and its
    multipliers name the children.  A row that pivots elsewhere means the
    system is singular.
    """
    a = _mckay_rows(g)
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
    if -sum(x * h.get(j, 0) for j, x in _mckay_rows(g)[0]) != rhs[0]:
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


def recognize_subgroup(vertices, adjacency):
    """Classify a connected simply-laced Dynkin graph; returns (GroupId, order).

    A_n -> C_{n+1}, D_n -> D*_{n-2}, E6/E7/E8 -> T*/O*/I*.
    """
    n = len(vertices)
    if n == 0:
        raise NotDynkin("empty component")
    nbrs = {v: [w for w in vertices if adjacency(v, w)] for v in vertices}
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

    Deletes beta's vertex or vertices from the McKay graph, restricts to the
    component containing alpha, and solves the Cartan system there.
    """
    m = mckay_graph(g)
    beta_vs = {i for i, c in enumerate(beta.coeffs) if c}
    alpha_vs = {i for i, c in enumerate(alpha.coeffs) if c}
    keep = [i for i in range(len(m.dims)) if i not in beta_vs]

    def adj(i, j):
        return m.adjacency[i][j] != 0

    # component containing alpha
    comp = set()
    stack = [v for v in alpha_vs if v in keep]
    if not stack:
        raise BPFloerError("alpha deleted entirely; pair is not adjacent")
    while stack:
        v = stack.pop()
        if v in comp:
            continue
        comp.add(v)
        stack.extend(w for w in keep if adj(v, w) and w not in comp)
    comp = sorted(comp)
    sub, order = recognize_subgroup(comp, adj)
    # Cartan solve on the component: (2I - A) h = alpha restricted
    pos = {v: i for i, v in enumerate(comp)}
    cartan = [{pos[v]: 2 * (v == w) - adj(v, w) for v in comp} for w in comp]
    echelon = TrackedEchelon(QQ)
    echelon.kernel_of_columns(cartan)
    residue, h = echelon.reduce({pos[v]: alpha.coeffs[v] for v in comp})
    if residue:
        raise Unsolvable("the Cartan system of the component is singular")
    coeffs = [0] * len(m.dims)
    for v in comp:
        val = h.get(pos[v], 0)
        if val.denominator != 1 or val <= 0:
            raise Unsolvable("graphical solve produced a bad weight %s" % val)
        coeffs[v] = int(val)
    return VirtualRep(g, coeffs), sub, order


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

    def vertex(self, name):
        return self._by_name[name]

    def neighbors(self, name):
        out = []
        for a, b in self.edges:
            if a == name:
                out.append(b)
            elif b == name:
                out.append(a)
        return out

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


def _tree_paths(root, neighbors):
    """Breadth-first walk from root: {vertex: path from root to it} for every
    vertex reached; neighbors(v) lists the vertices adjacent to v."""
    paths = {root: [root]}
    queue = [root]
    while queue:
        v = queue.pop(0)
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

        def orbit_neighbors(v):
            return [w for w in range(len(quo.orbits)) if quo.adjacency[v][w]]

        names = [q.name for q in quats]
        for x in range(len(names)):
            paths = _tree_paths(loc[names[x]], orbit_neighbors)
            for y in range(x + 1, len(names)):
                p = paths[loc[names[y]]]
                if all(v not in quat_orbits for v in p[1:-1]):
                    edges.append((names[x], names[y]))
    # gradings from tree distance to theta
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    from_theta = _tree_paths("theta", lambda v: adj.get(v, []))
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
