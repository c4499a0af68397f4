"""Character tables, types, tensor decomposition, quaternionic representations."""
import dataclasses

import pytest

from bpfloer.errors import BPFloerError, DecompositionFailure
from bpfloer.groups import (
    FULLY_REDUCIBLE,
    I_STAR,
    IRREDUCIBLE,
    O_STAR,
    REDUCIBLE,
    T_STAR,
    binary_dihedral,
    character_table,
    cyclic,
    fs_indicator,
    parse_group,
    q_tensor_matrix,
    quaternionic_reps,
    tensor_decompose,
    verify_orthogonality,
)

ALL_GROUPS = (
    [cyclic(k) for k in range(1, 13)]
    + [binary_dihedral(k) for k in range(2, 13)]
    + [T_STAR, O_STAR, I_STAR]
)


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_orthogonality_all_tables(g):
    assert verify_orthogonality(g)


def corrupted_table(t, how):
    """t with one irrep corrupted: its first non-real value replaced by the
    conjugate ("conjugate"), or the values of its first two classes that
    differ swapped ("swap"); or ("split") its first class of size >= 2 split
    into two classes with the same values, moving one element to a new last
    class, so the rows and both sums still hold and only squareness fails."""
    if how == "split":
        c = next(c for c, cl in enumerate(t.classes) if cl.size >= 2)
        cl = t.classes[c]
        classes = (t.classes[:c] + (dataclasses.replace(cl, size=cl.size - 1),)
                   + t.classes[c + 1:] + (dataclasses.replace(cl, label=cl.label + "'", size=1),))
        irreps = tuple(dataclasses.replace(ir, values=ir.values + (ir.values[c],))
                       for ir in t.irreps)
        return dataclasses.replace(t, classes=classes, irreps=irreps,
                                   squares=t.squares + (t.squares[c],))
    for i, ir in enumerate(t.irreps):
        vals = list(ir.values)
        if how == "conjugate":
            bad = [c for c, v in enumerate(vals) if v != v.conj()]
            if not bad:
                continue
            vals[bad[0]] = vals[bad[0]].conj()
        else:
            pairs = [(c, d) for c in range(len(vals)) for d in range(c + 1, len(vals))
                     if vals[c] != vals[d]]
            if not pairs:
                continue
            c, d = pairs[0]
            vals[c], vals[d] = vals[d], vals[c]
        irreps = t.irreps[:i] + (dataclasses.replace(ir, values=tuple(vals)),) + t.irreps[i + 1:]
        return dataclasses.replace(t, irreps=irreps)
    raise AssertionError("no entry to corrupt")


CORRUPTIONS = [(g, how) for g in (cyclic(5), binary_dihedral(5)) for how in ("conjugate", "swap")]
# C_5 has no class of size >= 2 to split
CORRUPTIONS += [(binary_dihedral(5), "split"), (T_STAR, "split")]


@pytest.mark.parametrize("g,how", CORRUPTIONS, ids=["%s-%s" % c for c in CORRUPTIONS])
def test_orthogonality_catches_one_corrupted_entry(g, how, monkeypatch):
    # verify_orthogonality computes each conjugate pair once (the upper
    # triangle) and no column sums; one wrong entry, or a split class that
    # keeps every row, must still fail it
    import bpfloer.groups as groups

    bad = corrupted_table(character_table(g), how)
    assert bad != character_table(g)
    monkeypatch.setattr(groups, "character_table", lambda group: bad)
    with pytest.raises(BPFloerError, match="orthogonality|not rational|not square"):
        verify_orthogonality(g)


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_fs_indicator_matches_type_column(g):
    t = character_table(g)
    for i, ir in enumerate(t.irreps):
        assert fs_indicator(g, i) == {"R": 1, "C": 0, "H": -1}[ir.rtype]


TYPED_GROUPS = (
    [cyclic(k) for k in range(1, 17)]
    + [binary_dihedral(k) for k in range(2, 13)]
    + [T_STAR, O_STAR, I_STAR]
)


@pytest.mark.parametrize("g", TYPED_GROUPS, ids=str)
def test_character_values_have_int_coefficients(g):
    # character values are sums of roots of unity: no Fraction, no float
    t = character_table(g)
    for values in [ir.values for ir in t.irreps] + [t.q_values]:
        for v in values:
            assert all(type(c) is int for c in v.coeffs), (g, v)


@pytest.mark.parametrize("g", TYPED_GROUPS, ids=str)
def test_fs_indicator_is_an_int(g):
    for i in range(len(character_table(g).irreps)):
        val = fs_indicator(g, i)
        assert type(val) is int and val in (-1, 0, 1)


def test_table_shapes():
    t = character_table(T_STAR)
    assert [ir.dim for ir in t.irreps] == [1, 1, 1, 2, 2, 2, 3]
    t = character_table(cyclic(3))
    assert [ir.dim for ir in t.irreps] == [1, 1, 1]
    assert [ir.rtype for ir in t.irreps] == ["R", "C", "C"]
    t = character_table(binary_dihedral(2))
    assert sorted(ir.dim for ir in t.irreps) == [1, 1, 1, 1, 2]
    assert sum(ir.dim ** 2 for ir in t.irreps) == 8


def test_fs_examples():
    # trivial character is always real type
    for g in (T_STAR, O_STAR, I_STAR, cyclic(5), binary_dihedral(3)):
        assert fs_indicator(g, 0) == 1
    # the 2-dim quaternionic irreducible of the tetrahedral-type group
    names = [ir.name for ir in character_table(T_STAR).irreps]
    assert fs_indicator(T_STAR, names.index("rho4")) == -1
    # binary dihedral 2-dims alternate H/R with the index parity
    for n in (3, 4, 6):
        t = character_table(binary_dihedral(n))
        for k in range(1, n):
            idx = [ir.name for ir in t.irreps].index("tau%d" % k)
            assert fs_indicator(binary_dihedral(n), idx) == (-1) ** k


def test_tensor_unit():
    for g in (T_STAR, O_STAR, I_STAR, binary_dihedral(4), cyclic(7)):
        t = character_table(g)
        a = q_tensor_matrix(g)
        # Q (x) trivial = Q with multiplicity 1
        if t.q_index is not None:
            want = [0] * len(t.irreps)
            want[t.q_index] = 1
            assert list(a[0]) == want


def test_tensor_dihedral_square():
    # tau1 (x) tau1 = tau2 + rho1 + rho0
    for n in (3, 5, 8):
        g = binary_dihedral(n)
        t = character_table(g)
        names = [ir.name for ir in t.irreps]
        mults = tensor_decompose(g, names.index("tau1"), names.index("tau1"))
        want = {names.index("tau2"), names.index("rho1"), names.index("rho0")}
        assert {i for i, m in enumerate(mults) if m} == want
        assert all(m in (0, 1) for m in mults)


def test_tensor_e6_adjacency():
    # Q (x) the 2-dim quaternionic irreducible is supported on its two
    # graph neighbours (dims 1 and 3)
    t = character_table(T_STAR)
    names = [ir.name for ir in t.irreps]
    mults = tensor_decompose(T_STAR, names.index("rho4"), t.q_index)
    support = {names[i] for i, m in enumerate(mults) if m}
    assert support == {"rho1", "rho5"}


def test_tensor_dimension_balance():
    for g in (T_STAR, O_STAR, I_STAR):
        t = character_table(g)
        for i in range(len(t.irreps)):
            mults = tensor_decompose(g, t.q_index, i)
            assert sum(m * t.irreps[k].dim for k, m in enumerate(mults)) == 2 * t.irreps[i].dim


def test_quaternionic_rep_lists():
    names = lambda g: [q.name for q in quaternionic_reps(g)]
    kinds = lambda g: [q.kind for q in quaternionic_reps(g)]
    assert names(O_STAR) == ["theta", "alpha", "beta", "eta"]
    assert kinds(O_STAR) == [FULLY_REDUCIBLE, IRREDUCIBLE, IRREDUCIBLE, FULLY_REDUCIBLE]
    assert names(T_STAR) == ["theta", "alpha", "lambda"]
    assert names(I_STAR) == ["theta", "alpha", "beta"]
    assert names(cyclic(5)) == ["theta", "lambda1", "lambda2"]


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_quaternionic_counts(g):
    count = len(quaternionic_reps(g))
    if g.family == "C":
        l = g.param
        assert count == (l // 2 + 1 if l % 2 == 0 else (l - 1) // 2 + 1)
    elif g.family == "D":
        n = g.param
        assert count == (n // 2 + 4 if n % 2 == 0 else (n - 1) // 2 + 3)
    else:
        assert count == {"T": 3, "O": 4, "I": 3}[g.family]


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_regular_representation_dimension(g):
    t = character_table(g)
    assert sum(ir.dim * ir.dim for ir in t.irreps) == g.order


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_dual_involution_is_mckay_automorphism(g):
    t = character_table(g)
    a = q_tensor_matrix(g)
    iota = t.iota
    n = len(t.irreps)
    assert [iota[iota[i]] for i in range(n)] == list(range(n))
    for i in range(n):
        # real and quaternionic characters are self-dual
        if t.irreps[i].rtype in ("R", "H"):
            assert iota[i] == i
        for j in range(n):
            assert a[iota[i]][iota[j]] == a[i][j]


def test_group_parsing_and_order():
    assert parse_group("C_5").order == 5
    assert parse_group("D*_4").order == 16
    assert parse_group("Dstar3").order == 12
    assert parse_group("T*").order == 24
    assert str(parse_group("I")) == "I*"
    assert parse_group("O").abelianization() == (2,)
    assert parse_group("C12").abelianization() == (12,)
    assert parse_group("D5").abelianization() == (4,)
    assert parse_group("D6").abelianization() == (2, 2)


def test_bad_multiplicity_detected():
    # corrupting a character value must surface as a decomposition failure
    from bpfloer.cyclo import Cyclo

    t = character_table(T_STAR)
    broken = list(t.irreps[0].values)
    broken[3] = Cyclo.integer(2, 24)
    with pytest.raises(DecompositionFailure):
        from bpfloer.groups import product_decompose

        product_decompose(T_STAR, tuple(broken), t.irreps[0].values)


GOLDEN_GROUPS = (
    [cyclic(k) for k in range(1, 33)]
    + [binary_dihedral(k) for k in range(2, 25)]
    + [T_STAR, O_STAR, I_STAR]
)


@pytest.mark.parametrize("g", GOLDEN_GROUPS, ids=str)
def test_q_tensor_matrix_matches_the_exact_pairings(g):
    # the oracle pairs Q (x) R_i with every R_j exactly in Q(zeta_N), as
    # cyclo_inner does; q_tensor_matrix only proposes by evaluation in F_p
    t = character_table(g)
    oracle = tuple(
        tuple(t.inner([a * b for a, b in zip(t.q_values, ri.values)], rj.values)
              for rj in t.irreps)
        for ri in t.irreps
    )
    assert q_tensor_matrix(g) == oracle


def _evaluation(g):
    from bpfloer.groups import _modular_pairing

    p, powers, _ = _modular_pairing(g, 2 * g.root_order)
    return p, powers


def test_a_value_wrong_by_p_is_caught_by_the_re_summation():
    # Q + p*x^k at one class has the image of Q in F_p, so every candidate
    # is the right multiplicity; only the exact re-summation can refuse it
    from bpfloer.cyclo import Cyclo
    from bpfloer.groups import product_decompose

    t = character_table(T_STAR)
    p, powers = _evaluation(T_STAR)
    c, k = 3, 5
    broken = list(t.q_values)
    broken[c] = broken[c] + Cyclo.root_power(k, 24) * p
    assert broken[c].evaluate(p, powers) == t.q_values[c].evaluate(p, powers)
    assert broken[c] != t.q_values[c]
    rho1 = t.irreps[0].values  # nonzero on every class
    with pytest.raises(DecompositionFailure, match="re-summation mismatch in class %d" % c):
        product_decompose(T_STAR, tuple(broken), rho1)
    # the same candidates, read off the intact product, are right
    assert product_decompose(T_STAR, t.q_values, rho1) == q_tensor_matrix(T_STAR)[0]


def test_an_out_of_range_candidate_is_a_bad_multiplicity():
    # rho5 - rho1 is a virtual character of degree 2: the candidate for rho1
    # is -1, outside [0, 2]
    from bpfloer.groups import product_decompose

    t = character_table(T_STAR)
    names = [ir.name for ir in t.irreps]
    rho1, rho5 = t.irreps[0].values, t.irreps[names.index("rho5")].values
    virtual = tuple(a - b for a, b in zip(rho5, rho1))
    with pytest.raises(DecompositionFailure, match="bad multiplicity -1"):
        product_decompose(T_STAR, virtual, rho1)
    # the range needs a degree: rho1 - rho5 has degree -2
    negative = tuple(-v for v in virtual)
    with pytest.raises(DecompositionFailure, match="product degree -2"):
        product_decompose(T_STAR, negative, rho1)
    with pytest.raises(DecompositionFailure, match="one value per class"):
        product_decompose(T_STAR, rho1[:-1], rho1[:-1])


@pytest.mark.parametrize("name,reductions", [("C_64", 0), ("C_96", 0), ("D*_60", 90)])
def test_q_tensor_matrix_reduction_count(name, reductions, monkeypatch):
    # the multiplicities come from F_p, and the re-summation differences of
    # the C family cancel term by term; on D*_60 only the differences that
    # meet x^(N/2) = -1 are reduced
    from bpfloer.cyclo import Cyclo

    g = parse_group(name)
    character_table(g)
    calls = []
    reduced = Cyclo.reduced

    def counting(self):
        calls.append(self)
        return reduced(self)

    monkeypatch.setattr(Cyclo, "reduced", counting)
    q_tensor_matrix.__wrapped__(g)
    assert len(calls) == reductions
