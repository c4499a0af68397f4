"""The finite subgroups of SU(2): classification data and character theory.

The two infinite families (cyclic, binary dihedral) are generated from closed
formulas for arbitrary parameters; the three exceptional groups carry
embedded character tables together with the squaring-class rows needed for
the type computation.  Every table is falsifiable through the orthogonality
relations: verify_orthogonality checks the rows on a square table, which
implies the columns, and the test suite runs it on all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .cyclo import Cyclo, cyclo_inner, evaluation_point
from .errors import BPFloerError, DecompositionFailure
from .fields import QQ

CYCLIC = "C"
BINARY_DIHEDRAL = "D"
TETRA = "T"
OCTA = "O"
ICOSA = "I"

R_TYPE = "R"
C_TYPE = "C"
H_TYPE = "H"

FULLY_REDUCIBLE = "fully-reducible"
REDUCIBLE = "reducible"
IRREDUCIBLE = "irreducible"


@dataclass(frozen=True)
class Orbit:
    """The critical orbit of a flat connection of one kind.

    delta is the orbit's top degree: 0 for a point (fully reducible), 2 for
    a two-sphere (reducible), 3 for a free orbit (irreducible).  The orbit
    has generators at t = 0 and t = delta, its standard grading is
    i = j - delta, and the orientation duality pairs a copy at level l with
    level -l - delta.  minus, plus and tate are its family letters in I^-,
    I^+ and I^inf; a free orbit has no Tate family.
    """

    delta: int
    minus: str
    plus: str
    tate: str | None

    @property
    def slots(self):
        """The internal degrees t of the orbit's generators."""
        return (0, self.delta) if self.delta else (0,)

    def letter(self, flavor):
        """The family letter in flavor "-", "+" or "inf" (None: no family)."""
        return {"-": self.minus, "+": self.plus, "inf": self.tate}[flavor]

    def label(self, flavor, vertex):
        """The family of the orbit at vertex in flavor, e.g. "V_theta"."""
        return "%s_%s" % (self.letter(flavor), vertex)


# the one orbit table: every route reads delta and the family letters here
ORBITS = {
    FULLY_REDUCIBLE: Orbit(0, "U", "V", "T"),
    REDUCIBLE: Orbit(2, "Z", "W", "S"),
    IRREDUCIBLE: Orbit(3, "h", "g", None),
}
ORBIT_OF_LETTER = {
    x: o for o in ORBITS.values() for x in (o.minus, o.plus, o.tate) if x is not None
}


@dataclass(frozen=True, order=True)
class GroupId:
    family: str
    param: int = 0

    def __post_init__(self):
        if self.family == CYCLIC:
            if self.param < 1:
                raise BPFloerError("cyclic parameter must be >= 1")
        elif self.family == BINARY_DIHEDRAL:
            if self.param < 2:
                raise BPFloerError("binary dihedral parameter must be >= 2")
        elif self.family in (TETRA, OCTA, ICOSA):
            if self.param:
                raise BPFloerError("exceptional groups take no parameter")
        else:
            raise BPFloerError("unknown family %r" % (self.family,))

    @property
    def order(self):
        if self.family == CYCLIC:
            return self.param
        if self.family == BINARY_DIHEDRAL:
            return 4 * self.param
        return {TETRA: 24, OCTA: 48, ICOSA: 120}[self.family]

    @property
    def root_order(self):
        """Cyclotomic order used for this group's character values."""
        if self.family == CYCLIC:
            return 2 * self.param
        if self.family == BINARY_DIHEDRAL:
            return 4 * self.param
        return {TETRA: 24, OCTA: 48, ICOSA: 120}[self.family]

    def abelianization(self):
        """Invariant factors of the abelianization (empty tuple = trivial)."""
        if self.family == CYCLIC:
            return (self.param,) if self.param > 1 else ()
        if self.family == BINARY_DIHEDRAL:
            return (4,) if self.param % 2 == 1 else (2, 2)
        return {TETRA: (3,), OCTA: (2,), ICOSA: ()}[self.family]

    def __str__(self):
        if self.family == CYCLIC:
            return "C_%d" % self.param
        if self.family == BINARY_DIHEDRAL:
            return "D*_%d" % self.param
        return {TETRA: "T*", OCTA: "O*", ICOSA: "I*"}[self.family]


def cyclic(l: int) -> GroupId:
    return GroupId(CYCLIC, l)


def binary_dihedral(n: int) -> GroupId:
    return GroupId(BINARY_DIHEDRAL, n)


T_STAR = GroupId(TETRA)
O_STAR = GroupId(OCTA)
I_STAR = GroupId(ICOSA)


def parse_group(name: str) -> GroupId:
    s = name.strip().replace("*", "").replace("_", "").replace("^", "")
    lowered = s.lower()
    if "star" in lowered:
        i = lowered.index("star")
        s = s[:i] + s[i + 4:]
    if not s:
        raise BPFloerError("empty group name")
    head, tail = s[0].upper(), s[1:]
    if head in ("T", "O", "I") and not tail:
        return GroupId({"T": TETRA, "O": OCTA, "I": ICOSA}[head])
    if head == "C" and tail.isdigit():
        return cyclic(int(tail))
    if head == "D" and tail.isdigit():
        return binary_dihedral(int(tail))
    raise BPFloerError("cannot parse group name %r" % name)


@dataclass(frozen=True)
class ConjClass:
    label: str
    size: int
    rep: str


@dataclass(frozen=True)
class Irred:
    name: str
    dim: int
    values: tuple          # Cyclo per conjugacy class
    rtype: str             # R_TYPE / C_TYPE / H_TYPE


@dataclass(frozen=True)
class CharTable:
    group: GroupId
    classes: tuple         # ConjClass, identity first
    irreps: tuple          # Irred, trivial first
    squares: tuple         # class index -> class index of the squares
    q_index: int | None    # index of Q when irreducible (non-cyclic groups)
    q_values: tuple        # character values of Q (always defined)
    iota: tuple            # dual involution on irreducible indices

    @property
    def order(self):
        return self.group.order

    @property
    def sizes(self):
        return tuple(c.size for c in self.classes)

    def inner(self, chi, psi):
        return cyclo_inner(list(chi), list(psi), list(self.sizes), self.order)


@dataclass(frozen=True)
class QuatRep:
    """A 1-dimensional quaternionic representation (a flat connection)."""

    name: str
    kind: str                      # FULLY_REDUCIBLE / REDUCIBLE / IRREDUCIBLE
    components: tuple              # ((irr index, multiplicity), ...)


def _cyclic_table(l: int) -> CharTable:
    N = 2 * l
    g = GroupId(CYCLIC, l)
    classes = tuple(ConjClass("g%d" % j, 1, "g^%d" % j) for j in range(l))
    squares = tuple((2 * j) % l for j in range(l))
    irreps = []
    for k in range(l):
        vals = tuple(Cyclo.root_power(2 * k * j, N) for j in range(l))
        if k == 0 or (l % 2 == 0 and k == l // 2):
            rtype = R_TYPE
        else:
            rtype = C_TYPE
        irreps.append(Irred("rho%d" % k, 1, vals, rtype))
    q_values = tuple(
        Cyclo.root_power(2 * j, N) + Cyclo.root_power(-2 * j, N) for j in range(l)
    )
    iota = tuple((l - k) % l for k in range(l))
    return CharTable(g, classes, tuple(irreps), squares, None, q_values, iota)


def _dihedral_table(n: int) -> CharTable:
    N = 4 * n
    g = GroupId(BINARY_DIHEDRAL, n)
    classes = [ConjClass("1", 1, "1"), ConjClass("-1", 1, "a^%d" % n)]
    for j in range(1, n):
        classes.append(ConjClass("a%d" % j, 2, "a^%d" % j))
    classes.append(ConjClass("x", n, "x"))
    classes.append(ConjClass("ax", n, "ax"))
    classes = tuple(classes)

    def exp_class(e):
        """Class index of a^e."""
        e %= 2 * n
        if e == 0:
            return 0
        if e == n:
            return 1
        j = min(e, 2 * n - e)
        return 1 + j
    squares = tuple(
        [exp_class(0), exp_class(2 * n)]
        + [exp_class(2 * j) for j in range(1, n)]
        + [1, 1]  # x^2 = (ax)^2 = -1
    )

    one = Cyclo.integer(1, N)
    m_one = Cyclo.integer(-1, N)

    def ones_row(vals):
        return tuple(vals)

    rho = []
    # rho0: trivial
    rho.append(ones_row([one] * (n + 3)))
    # rho1: kernel <a>; x -> -1
    rho.append(ones_row([one, one] + [one] * (n - 1) + [m_one, m_one]))
    if n % 2 == 0:
        r2 = [one, one] + [one if j % 2 == 0 else m_one for j in range(1, n)] + [one, m_one]
        r3 = [one, one] + [one if j % 2 == 0 else m_one for j in range(1, n)] + [m_one, one]
        types23 = R_TYPE
    else:
        i_val = Cyclo.root_power(n, N)  # fourth root of unity
        r2 = [one, m_one] + [one if j % 2 == 0 else m_one for j in range(1, n)] + [i_val, -i_val]
        r3 = [one, m_one] + [one if j % 2 == 0 else m_one for j in range(1, n)] + [-i_val, i_val]
        types23 = C_TYPE
    zero = Cyclo.integer(0, N)
    taus = []
    for k in range(1, n):
        vals = [Cyclo.integer(2, N), Cyclo.integer(2 * (-1) ** k, N)]
        for j in range(1, n):
            vals.append(Cyclo.root_power(2 * j * k, N) + Cyclo.root_power(-2 * j * k, N))
        vals += [zero, zero]
        taus.append(tuple(vals))

    irreps = [
        Irred("rho0", 1, rho[0], R_TYPE),
        Irred("rho1", 1, rho[1], R_TYPE),
        Irred("rho2", 1, tuple(r2), types23),
        Irred("rho3", 1, tuple(r3), types23),
    ]
    for k in range(1, n):
        irreps.append(Irred("tau%d" % k, 2, taus[k - 1], H_TYPE if k % 2 else R_TYPE))
    q_index = 4  # tau1
    iota = list(range(len(irreps)))
    if n % 2 == 1:
        iota[2], iota[3] = 3, 2
    return CharTable(
        g, classes, tuple(irreps), squares, q_index, irreps[q_index].values, tuple(iota)
    )


def _sym(symbol, N):
    """Tiny vocabulary for the embedded exceptional tables."""
    if isinstance(symbol, int):
        return Cyclo.integer(symbol, N)
    table = {
        # primitive third root and its square (orders 24 with x^8)
        "xi": Cyclo.root_power(N // 3, N),
        "xi2": Cyclo.root_power(2 * (N // 3), N),
        # sqrt(2) via an eighth root of unity
        "s2": Cyclo.root_power(N // 8, N) + Cyclo.root_power(-(N // 8), N) if N % 8 == 0 else None,
        # golden ratio and its inverse via fifth roots of unity
        "phi": (
            Cyclo.integer(1, N) + Cyclo.root_power(N // 5, N) + Cyclo.root_power(-(N // 5), N)
            if N % 5 == 0
            else None
        ),
        "phi-": (
            Cyclo.root_power(N // 5, N) + Cyclo.root_power(-(N // 5), N)
            if N % 5 == 0
            else None
        ),
    }
    neg = symbol.startswith("-")
    key = symbol[1:] if neg else symbol
    val = table[key]
    if val is None:
        raise BPFloerError("symbol %r unavailable at order %d" % (symbol, N))
    return -val if neg else val


def _embedded_table(g, class_data, square_labels, irrep_data, q_name):
    N = g.root_order
    labels = [c[0] for c in class_data]
    classes = tuple(ConjClass(lbl, size, rep) for lbl, size, rep in class_data)
    squares = tuple(labels.index(s) for s in square_labels)
    irreps = tuple(
        Irred(name, dim, tuple(_sym(v, N) for v in vals), rtype)
        for name, dim, vals, rtype in irrep_data
    )
    names = [ir.name for ir in irreps]
    q_index = names.index(q_name)
    # dual involution from conjugated characters
    iota = []
    for i, ir in enumerate(irreps):
        conj_vals = tuple(v.conj() for v in ir.values)
        match = None
        for k, other in enumerate(irreps):
            if all((a - b).rational_value() == 0 for a, b in zip(conj_vals, other.values)):
                match = k
                break
        if match is None:
            raise BPFloerError("no dual found for %s" % ir.name)
        iota.append(match)
    return CharTable(g, classes, irreps, squares, q_index, irreps[q_index].values, tuple(iota))


def _tetra_table() -> CharTable:
    class_data = [
        ("1", 1, "1"), ("2", 1, "-1"), ("3a", 4, "-x"), ("3b", 4, "-x*"),
        ("4", 6, "i"), ("6a", 4, "x"), ("6b", 4, "x*"),
    ]
    squares = ["1", "1", "3b", "3a", "2", "3b", "3a"]
    irreps = [
        ("rho1", 1, [1, 1, 1, 1, 1, 1, 1], R_TYPE),
        ("rho2", 1, [1, 1, "xi", "xi2", 1, "xi", "xi2"], C_TYPE),
        ("rho2c", 1, [1, 1, "xi2", "xi", 1, "xi2", "xi"], C_TYPE),
        ("rho3", 2, [2, -2, "-xi", "-xi2", 0, "xi", "xi2"], C_TYPE),
        ("rho3c", 2, [2, -2, "-xi2", "-xi", 0, "xi2", "xi"], C_TYPE),
        ("rho4", 2, [2, -2, -1, -1, 0, 1, 1], H_TYPE),
        ("rho5", 3, [3, 3, 0, 0, -1, 0, 0], R_TYPE),
    ]
    return _embedded_table(T_STAR, class_data, squares, irreps, "rho4")


def _octa_table() -> CharTable:
    class_data = [
        ("1", 1, "1"), ("2", 1, "-1"), ("3", 8, "-x"), ("4a", 6, "i"),
        ("4b", 12, "z"), ("6", 8, "x"), ("8a", 6, "y"), ("8b", 6, "-y"),
    ]
    # y = (1+i)/sqrt2 squares to i, so both order-8 classes square into 4a
    squares = ["1", "1", "3", "2", "2", "3", "4a", "4a"]
    irreps = [
        ("rho1", 1, [1, 1, 1, 1, 1, 1, 1, 1], R_TYPE),
        ("rho2", 1, [1, 1, 1, 1, -1, 1, -1, -1], R_TYPE),
        ("rho3", 2, [2, 2, -1, 2, 0, -1, 0, 0], R_TYPE),
        ("rho4", 2, [2, -2, -1, 0, 0, 1, "s2", "-s2"], H_TYPE),
        ("rho5", 2, [2, -2, -1, 0, 0, 1, "-s2", "s2"], H_TYPE),
        ("rho6", 3, [3, 3, 0, -1, -1, 0, 1, 1], R_TYPE),
        ("rho7", 3, [3, 3, 0, -1, 1, 0, -1, -1], R_TYPE),
        ("rho8", 4, [4, -4, 1, 0, 0, -1, 0, 0], H_TYPE),
    ]
    return _embedded_table(O_STAR, class_data, squares, irreps, "rho4")


def _icosa_table() -> CharTable:
    class_data = [
        ("1", 1, "1"), ("2", 1, "-1"), ("3", 20, "-x"), ("4", 30, "i"),
        ("5a", 12, "u^2"), ("5b", 12, "-u"), ("6", 20, "x"),
        ("10a", 12, "u"), ("10b", 12, "-u^2"),
    ]
    squares = ["1", "1", "3", "2", "5b", "5a", "3", "5a", "5b"]
    irreps = [
        ("rho1", 1, [1, 1, 1, 1, 1, 1, 1, 1, 1], R_TYPE),
        ("rho2", 2, [2, -2, -1, 0, "phi-", "-phi", 1, "phi", "-phi-"], H_TYPE),
        ("rho3", 2, [2, -2, -1, 0, "-phi", "phi-", 1, "-phi-", "phi"], H_TYPE),
        ("rho4", 3, [3, 3, 0, -1, "-phi-", "phi", 0, "phi", "-phi-"], R_TYPE),
        ("rho5", 3, [3, 3, 0, -1, "phi", "-phi-", 0, "-phi-", "phi"], R_TYPE),
        ("rho6", 4, [4, 4, 1, 0, -1, -1, 1, -1, -1], R_TYPE),
        ("rho7", 4, [4, -4, 1, 0, -1, -1, -1, 1, 1], H_TYPE),
        ("rho8", 5, [5, 5, -1, 1, 0, 0, -1, 0, 0], R_TYPE),
        ("rho9", 6, [6, -6, 0, 0, 1, 1, 0, -1, -1], H_TYPE),
    ]
    return _embedded_table(I_STAR, class_data, squares, irreps, "rho2")


@lru_cache(maxsize=None)
def character_table(g: GroupId) -> CharTable:
    if g.family == CYCLIC:
        return _cyclic_table(g.param)
    if g.family == BINARY_DIHEDRAL:
        return _dihedral_table(g.param)
    if g.family == TETRA:
        return _tetra_table()
    if g.family == OCTA:
        return _octa_table()
    return _icosa_table()


def fs_indicator(g: GroupId, irr_index: int) -> int:
    """Frobenius-Schur indicator (1/|G|) sum chi(g^2); 1, 0, -1 by type."""
    t = character_table(g)
    chi = t.irreps[irr_index].values
    N = g.root_order
    acc = Cyclo.integer(0, N)
    for c, cls in enumerate(t.classes):
        acc = acc + chi[t.squares[c]] * cls.size
    val = acc.rational_value()
    if val is None:
        from .errors import NonRationalResult

        raise NonRationalResult("FS indicator is not rational")
    val = Fraction(val, t.order)
    if val.denominator != 1 or val not in (-1, 0, 1):
        raise DecompositionFailure("FS indicator %s is not in {-1,0,1}" % val)
    return int(val)


@lru_cache(maxsize=None)
def _modular_pairing(g: GroupId, floor: int):
    """(p, powers, rows) for the evaluation point (p, powers) of
    cyclo.evaluation_point(N, floor): rows[j][c] = |c| conj(chi_j(c)) / |G|
    evaluated in F_p, so the pairing <psi, chi_j> maps to
    sum_c psi(c) rows[j][c] mod p.  p > N >= |G|, so |G| is invertible."""
    t = character_table(g)
    p, powers = evaluation_point(g.root_order, floor)
    inv = pow(t.order, -1, p)
    rows = tuple(
        tuple(size * inv * v.conj().evaluate(p, powers) % p
              for size, v in zip(t.sizes, ir.values))
        for ir in t.irreps
    )
    return p, powers, rows


def product_decompose(g: GroupId, values1, values2):
    """Decompose a product of characters into irreducible multiplicities.

    The candidates come from one evaluation in F_p; the exact re-summation
    decides.  x -> w, w a primitive N-th root of unity mod a prime
    p = 1 (mod N), is a ring homomorphism Z[x]/(x^N - 1) -> F_p that kills
    Phi_N, so it factors through Z[zeta_N].  When the product is a character
    of degree d and the table is right, each pairing <prod, chi_j> is an
    integer m_j in [0, d] (m_j d_j <= d), and its image is m_j mod p; with
    p > 2 max(d, N) the least absolute residue is m_j itself.  A residue
    outside [0, d] is rejected as a bad multiplicity.  The image cannot tell
    values apart that differ by a multiple of p (or of Phi_N), so no
    candidate is accepted until prod(c) = sum_j m_j chi_j(c) holds exactly in
    Q(zeta_N) on every class c.  That identity is the decomposition itself,
    whatever the evaluation proposed.
    """
    t = character_table(g)
    if not len(values1) == len(values2) == len(t.classes):
        raise DecompositionFailure("a product needs one value per class of %s" % g)
    prod = [a * b for a, b in zip(values1, values2)]
    deg = prod[0].rational_value()  # the identity class comes first
    if type(deg) is not int or deg < 0:
        raise DecompositionFailure("product degree %s is not a nonnegative integer" % deg)
    p, powers, rows = _modular_pairing(g, 2 * max(deg, g.root_order))
    at = [v.evaluate(p, powers) for v in prod]
    mults = []
    for row in rows:
        m = sum(map(mul, at, row)) % p
        if m > p // 2:
            m -= p
        if not 0 <= m <= deg:
            raise DecompositionFailure("bad multiplicity %s" % m)
        mults.append(m)
    # re-summation check: the decomposition reproduces the product exactly
    support = [(m, ir.values) for m, ir in zip(mults, t.irreps) if m]
    for c, target in enumerate(prod):
        diff = Cyclo.combination(
            g.root_order, [(-1, target)] + [(m, values[c]) for m, values in support])
        if diff.rational_value() != 0:
            raise DecompositionFailure("re-summation mismatch in class %d" % c)
    return tuple(mults)


def tensor_decompose(g: GroupId, i: int, j: int):
    """Multiplicity vector of R_i (x) R_j in the irreducible basis."""
    t = character_table(g)
    return product_decompose(g, t.irreps[i].values, t.irreps[j].values)


@lru_cache(maxsize=None)
def q_tensor_matrix(g: GroupId):
    """McKay multiplicities a[i][j]: Q (x) R_i = sum_j a_ij R_j."""
    t = character_table(g)
    rows = []
    for i in range(len(t.irreps)):
        rows.append(product_decompose(g, t.q_values, t.irreps[i].values))
    return tuple(rows)


@lru_cache(maxsize=None)
def quaternionic_reps(g: GroupId):
    """The 1-dimensional quaternionic representations, theta first."""
    t = character_table(g)
    names = {ir.name: k for k, ir in enumerate(t.irreps)}
    out = []
    if g.family == CYCLIC:
        l = g.param
        out.append(QuatRep("theta", FULLY_REDUCIBLE, ((names["rho0"], 2),)))
        half = (l - 1) // 2 if l % 2 else l // 2 - 1
        for k in range(1, half + 1):
            out.append(
                QuatRep(
                    "lambda%d" % k,
                    REDUCIBLE,
                    ((names["rho%d" % k], 1), (names["rho%d" % (l - k)], 1)),
                )
            )
        if l % 2 == 0:
            out.append(QuatRep("eta", FULLY_REDUCIBLE, ((names["rho%d" % (l // 2)], 2),)))
    elif g.family == BINARY_DIHEDRAL:
        n = g.param
        out.append(QuatRep("theta", FULLY_REDUCIBLE, ((names["rho0"], 2),)))
        if n % 2 == 0:
            out.append(QuatRep("eta1", FULLY_REDUCIBLE, ((names["rho1"], 2),)))
            for k in range(1, n // 2 + 1):
                out.append(QuatRep("alpha%d" % k, IRREDUCIBLE, ((names["tau%d" % (2 * k - 1)], 1),)))
            out.append(QuatRep("eta2", FULLY_REDUCIBLE, ((names["rho2"], 2),)))
            out.append(QuatRep("eta3", FULLY_REDUCIBLE, ((names["rho3"], 2),)))
        else:
            out.append(QuatRep("eta", FULLY_REDUCIBLE, ((names["rho1"], 2),)))
            for k in range(1, (n - 1) // 2 + 1):
                out.append(QuatRep("alpha%d" % k, IRREDUCIBLE, ((names["tau%d" % (2 * k - 1)], 1),)))
            out.append(QuatRep("lambda", REDUCIBLE, ((names["rho2"], 1), (names["rho3"], 1))))
    elif g.family == TETRA:
        out = [
            QuatRep("theta", FULLY_REDUCIBLE, ((names["rho1"], 2),)),
            QuatRep("alpha", IRREDUCIBLE, ((names["rho4"], 1),)),
            QuatRep("lambda", REDUCIBLE, ((names["rho2"], 1), (names["rho2c"], 1))),
        ]
    elif g.family == OCTA:
        out = [
            QuatRep("theta", FULLY_REDUCIBLE, ((names["rho1"], 2),)),
            QuatRep("alpha", IRREDUCIBLE, ((names["rho4"], 1),)),
            QuatRep("beta", IRREDUCIBLE, ((names["rho5"], 1),)),
            QuatRep("eta", FULLY_REDUCIBLE, ((names["rho2"], 2),)),
        ]
    else:
        out = [
            QuatRep("theta", FULLY_REDUCIBLE, ((names["rho1"], 2),)),
            QuatRep("alpha", IRREDUCIBLE, ((names["rho2"], 1),)),
            QuatRep("beta", IRREDUCIBLE, ((names["rho3"], 1),)),
        ]
    # sanity: every constituent has complex dimension totalling 2
    for qr in out:
        total = sum(m * t.irreps[i].dim for i, m in qr.components)
        if total != 2:
            raise BPFloerError("quaternionic rep %s has dimension %d" % (qr.name, total))
    return tuple(out)


def verify_orthogonality(g: GroupId):
    """Row orthogonality on a square table, which implies column
    orthogonality; raises on failure."""
    t = character_table(g)
    n = len(t.irreps)
    if sum(ir.dim ** 2 for ir in t.irreps) != t.order:
        raise BPFloerError("dimension-square sum mismatch for %s" % g)
    if sum(t.sizes) != t.order:
        raise BPFloerError("class sizes do not sum to the order for %s" % g)
    # Column orthogonality follows from the rows on a square table.  With X
    # the table and D the class sizes, the rows say X D X* = |G| I in
    # Q(zeta_N), where the pairing's rational_value reduces; conj is an
    # automorphism there since Phi_N is self-reciprocal.  A square X is then
    # invertible with X^-1 = D X* / |G|, so X* X = |G| D^-1: column
    # orthogonality, and every class size nonzero (Serre, Linear
    # Representations of Finite Groups, 2.5).
    if n != len(t.classes):
        raise BPFloerError("character table of %s is not square: %d irreps, %d classes"
                           % (g, n, len(t.classes)))
    # The pairing is Hermitian in Q[x]/(x^N - 1), whatever the values:
    # <chi_j, chi_i> is the conjugate (x -> x^-1) of <chi_i, chi_j>, and
    # reducing mod the self-reciprocal Phi_N commutes with conjugation, so a
    # pair is rational with value v iff its transpose is.  The lower triangle
    # (j < i) is implied by the upper one and is not computed.
    for i in range(n):
        for j in range(i, n):
            want = QQ.one if i == j else QQ.zero
            if t.inner(t.irreps[i].values, t.irreps[j].values) != want:
                raise BPFloerError("row orthogonality fails for %s at (%d,%d)" % (g, i, j))
    return True
