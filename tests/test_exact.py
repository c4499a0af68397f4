"""Exact scalar arithmetic and sparse linear algebra."""
import random
from fractions import Fraction

import pytest

from bpfloer.chains import ChainMap, FiniteComplex, HomologyData
from bpfloer.cyclo import Cyclo, _min_relation, cyclo_inner, evaluation_point
from bpfloer.donaldson import BAR, Window, build_model
from bpfloer.equivariant import MINUS, PLUS, functor_model
from bpfloer.errors import BPFloerError, NonRationalResult
from bpfloer.fields import QQ, PrimeField, parse_field
from bpfloer.groups import I_STAR
from bpfloer.sparse import SparseMat, TrackedEchelon, dense_rank, rank_kernel_image


def test_field_axioms_rational():
    rng = random.Random(0)
    for _ in range(50):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert QQ.sub(QQ.add(a, b), b) == a
        if b:
            assert QQ.mul(QQ.mul(a, b), QQ.inv(b)) == a


def test_rationals_keep_integers_as_int():
    assert type(QQ.of(3)) is int
    assert type(QQ.of(Fraction(6, 2))) is int
    assert type(QQ.mul(Fraction(3, 2), 2)) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(5, 3), Fraction(2, 3))) is int
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.zero) is int and type(QQ.one) is int
    # values that are not integers stay exact Fractions
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.mul(Fraction(3, 2), 3) == Fraction(9, 2)
    assert QQ.of(Fraction(-4, 6)) == Fraction(-2, 3)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_prime_field(p):
    f = PrimeField(p)
    for a in range(p):
        for b in range(1, p):
            assert f.sub(f.add(a, b), b) == a % p
            assert f.mul(b, f.inv(b)) == 1
    assert f.of(Fraction(1, 2)) == f.inv(2)


def test_characteristic_two_rejected():
    with pytest.raises(BPFloerError):
        PrimeField(2)
    with pytest.raises(BPFloerError):
        parse_field("fp:2")
    assert parse_field("fp:7").p == 7
    assert parse_field("q") is QQ


def test_cyclo_ring_ops():
    rng = random.Random(1)
    N = 12
    for _ in range(20):
        a = Cyclo(N, [rng.randint(-3, 3) for _ in range(N)])
        b = Cyclo(N, [rng.randint(-3, 3) for _ in range(N)])
        c = Cyclo(N, [rng.randint(-3, 3) for _ in range(N)])
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()
    # Fraction coefficients take the non-integral path, which stays exact
    for _ in range(20):
        a, b, c = (Cyclo(N, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(N)])
                   for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a - a).is_zero()
        assert (a * 3) * Fraction(1, 3) == a
    half = Cyclo(N, [Fraction(1, 2)] * N)
    assert half * half == Cyclo(N, [Fraction(N, 4)] * N)


def test_cyclo_rejects_floats():
    with pytest.raises(TypeError, match="not float"):
        Cyclo(6, [0.1, 0, 0, 0, 0, 0])
    one = Cyclo.integer(1, 6)
    with pytest.raises(TypeError, match="not float"):
        one * 0.5
    with pytest.raises(TypeError, match="not float"):
        0.5 * one
    with pytest.raises(TypeError, match="with float"):
        one + 0.5
    with pytest.raises(TypeError, match="with float"):
        one - 0.5


def test_cyclo_equality_is_by_value():
    one = Cyclo.integer(1, 6)
    assert one == 1 and 1 == one and one != 2
    half = Cyclo.integer(Fraction(1, 2), 6)
    assert half == Fraction(1, 2) and half != 0
    # the primitive cube roots z6^2 + z6^4 sum to -1; z6 itself is irrational
    assert Cyclo(6, [0, 0, 1, 0, 1, 0]) == -1
    assert Cyclo.root_power(1, 6) != 1
    assert hash(one) == hash(1) and hash(half) == hash(Fraction(1, 2))
    assert {1: "one"}[one] == "one"
    with pytest.raises(TypeError, match="with float"):
        one == 1.0


def test_cyclo_equality_across_orders():
    # x_N is x_L^(L/N) in any order L that N divides; values compare alike
    assert len({Cyclo.integer(1, 4), 1, Cyclo.integer(1, 6)}) == 1
    assert Cyclo.root_power(1, 4) == Cyclo.root_power(3, 12)
    assert Cyclo.root_power(1, 4) != Cyclo.root_power(1, 12)
    # primitive cube roots: z6^2 is z3, and z4^2 = -1 = z6^3
    assert Cyclo.root_power(2, 6) == Cyclo.root_power(1, 3)
    assert Cyclo.root_power(2, 4) == Cyclo.root_power(3, 6) == -1
    assert len({Cyclo.root_power(2, 6), Cyclo.root_power(1, 3), Cyclo.root_power(4, 12)}) == 1
    rng = random.Random(8)
    for _ in range(40):
        n, k = rng.choice([3, 4, 5, 6, 8, 12]), rng.randint(2, 3)
        a = Cyclo(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
        lifted = Cyclo(k * n, [a.coeffs[i // k] if i % k == 0 else 0 for i in range(k * n)])
        assert a == lifted and lifted == a and hash(a) == hash(lifted)
        b = a + Cyclo.root_power(rng.randrange(n), n)
        assert a != b and b != lifted
        v = a.rational_value()
        if v is not None:
            assert hash(a) == hash(v) and a == v


def test_cyclo_coefficients_are_int_when_integral():
    a = Cyclo(6, [Fraction(1, 2), 0, Fraction(3, 2), 0, Fraction(4, 2), 0])
    for v in (a, a * 2, 2 * a, a * Fraction(1, 3), a + a, a * a, a * 2 - a, -a, a.conj()):
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in v.coeffs), v
    assert all(type(x) is int for x in (a * 2).coeffs)
    assert type((a * 2).rational_part().coeffs[0]) is int


def test_cyclo_terms_store_no_zero():
    # values are stored by their nonzero terms: every result drops the
    # exponents whose coefficients cancel
    rng = random.Random(5)
    N = 12
    pool = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(4, 2)]
    for _ in range(40):
        a, b = (Cyclo(N, [rng.choice(pool) for _ in range(N)]) for _ in range(2))
        k = rng.randrange(N)
        x, y = Cyclo.root_power(k, N), Cyclo.root_power(-k, N)
        results = (a + b, a - b, a + -a, a * b, x * y, x + y, (x + y) * (x - y),
                   a * 3, 3 * a, a * 0, a * Fraction(1, 2), a.conj(), a.reduced(),
                   Cyclo.integer(0, N), a - a)
        for v in results:
            assert set(v.terms) <= set(range(N)), v
            assert all(c != 0 and type(c) is (int if c.denominator == 1 else Fraction)
                       for c in v.terms.values()), v
    assert (a - a).terms == {} and Cyclo.integer(0, N).terms == {} and (a * 0).terms == {}


@pytest.mark.parametrize("c", [
    [0, 3, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 0],
    [Fraction(1, 2), 0, Fraction(-3, 4), 0, Fraction(6, 3), 0],
])
def test_cyclo_coeffs_round_trip(c):
    v = Cyclo(len(c), c)
    assert v.coeffs == tuple(c)
    assert v.terms == {k: x for k, x in enumerate(c) if x}


def test_cyclo_product_at_large_order_stays_sparse():
    # a dense vector of length 10^6 would take megabytes; two roots of unity
    # and their product take a few entries
    import tracemalloc

    tracemalloc.start()
    try:
        v = Cyclo.root_power(3, 10**6) * Cyclo.root_power(5, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.terms == {8: 1} and v.order == 10**6
    assert peak < 10**5, peak


def _phi_by_division(n):
    """Phi_n as int coefficients (low degree first): x^n - 1 divided exactly
    by Phi_d for every proper divisor d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = _phi_by_division(d)
        quot = [0] * (len(num) - len(den) + 1)
        for k in range(len(quot) - 1, -1, -1):
            f = num[k + len(den) - 1]  # Phi_d is monic
            quot[k] = f
            for i, c in enumerate(den):
                num[k + i] -= f * c
        assert not any(num[: len(den) - 1])
        num = quot
    return num


def test_min_relation_is_the_integer_cyclotomic_polynomial():
    for n in range(1, 121):
        rel = _min_relation(n)
        assert all(type(c) is int for c in rel), n
        assert rel[-1] == 1
        assert list(rel) == _phi_by_division(n), n


def test_cyclo_inner_is_int_or_fraction():
    one, zero = Cyclo.integer(1, 6), Cyclo.integer(0, 6)
    val = cyclo_inner([one, one, one], [one, one, one], [1, 1, 1], 3)
    assert type(val) is int and val == 1
    two = Cyclo.integer(2, 6)
    val = cyclo_inner([one, one, one], [two, zero, zero], [1, 1, 1], 3)
    assert type(val) is Fraction and val == Fraction(2, 3)


def test_cyclo_conjugation_indices():
    z = Cyclo.root_power(5, 24)
    assert z.conj() == Cyclo.root_power(19, 24)


def test_rational_projection_idempotent():
    rng = random.Random(2)
    for N in (8, 12, 24):
        for _ in range(10):
            a = Cyclo(N, [rng.randint(-2, 2) for _ in range(N)])
            proj = a.rational_part()
            assert proj.rational_part() == proj
    # a rational combination: zeta + conj(zeta) + 1 for N = 6 is 2 (zeta6 has real part 1/2)
    v = Cyclo.root_power(1, 6) + Cyclo.root_power(5, 6) + Cyclo.integer(1, 6)
    assert v.rational_value() == 2


def test_sqrt2_is_not_rational():
    s2 = Cyclo.root_power(6, 48) + Cyclo.root_power(42, 48)
    assert s2.rational_value() is None
    assert (s2 * s2).rational_value() == 2


def test_rational_value_of_a_constant_makes_no_reduction(monkeypatch):
    # Phi_N at N = 10^6 is dense; a constant is rational without it
    def no_reduction(self):
        raise AssertionError("reduced() called on a constant")

    monkeypatch.setattr(Cyclo, "reduced", no_reduction)
    assert Cyclo.integer(5, 10**6).rational_value() == 5
    assert Cyclo.integer(0, 10**6).rational_value() == 0
    assert Cyclo.integer(Fraction(1, 3), 10**6).rational_value() == Fraction(1, 3)
    assert Cyclo.integer(5, 10**6) == 5


def test_rational_value_still_reduces_a_nonconstant():
    # 1 + x^(N/2) is 0 in Q(zeta_N) though it has two terms
    assert (Cyclo.integer(1, 120) + Cyclo.root_power(60, 120)).rational_value() == 0


@pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 48, 96, 120, 192, 240])
def test_evaluation_point_is_a_primitive_root_mod_a_prime(n):
    p, powers = evaluation_point(n, 2 * n)
    assert p > 2 * n and (p - 1) % n == 0
    assert all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert len(powers) == n and powers[0] == 1
    assert powers[1 % n] * powers[-1] % p == 1
    assert len(set(powers)) == n  # w has order exactly n
    # the least such prime
    assert not any(all(q % d for d in range(2, int(q ** 0.5) + 1))
                   for q in range(n + 1, p, n) if q > 2 * n)


def test_evaluate_is_a_ring_homomorphism_killing_phi():
    rng = random.Random(7)
    for n in (12, 24, 30):
        p, powers = evaluation_point(n, 2 * n)
        phi = Cyclo(n, list(_min_relation(n)) + [0] * (n - len(_min_relation(n))))
        assert phi.evaluate(p, powers) == 0
        for _ in range(10):
            a = Cyclo(n, [rng.randint(-3, 3) for _ in range(n)])
            b = Cyclo(n, [rng.randint(-3, 3) for _ in range(n)])
            assert (a * b).evaluate(p, powers) == a.evaluate(p, powers) * b.evaluate(p, powers) % p
            assert (a + b).evaluate(p, powers) == (a.evaluate(p, powers) + b.evaluate(p, powers)) % p
            # equal values have equal images
            assert (a.reduced()).evaluate(p, powers) == a.evaluate(p, powers)
    half = Cyclo.integer(Fraction(1, 2), 12)
    p, powers = evaluation_point(12, 24)
    assert 2 * half.evaluate(p, powers) % p == 1


def test_cyclo_combination_is_the_linear_combination():
    a, b = Cyclo.root_power(1, 8), Cyclo.root_power(3, 8) + Cyclo.integer(2, 8)
    assert Cyclo.combination(8, [(3, a), (-1, b), (1, a)]).terms == (a * 4 - b).terms
    assert Cyclo.combination(8, [(1, a), (-1, a)]).terms == {}
    with pytest.raises(TypeError):
        Cyclo.combination(8, [(0.5, a)])


def test_cyclo_inner_orthonormal():
    one = Cyclo.integer(1, 6)
    val = cyclo_inner([one, one, one], [one, one, one], [1, 1, 1], 3)
    assert val == 1


def test_cyclo_inner_rejects_irrational():
    s2 = Cyclo.root_power(6, 48) + Cyclo.root_power(42, 48)
    one = Cyclo.integer(1, 48)
    with pytest.raises(NonRationalResult):
        cyclo_inner([s2], [one], [48], 48)


def test_rank_identity_and_zero():
    ident = SparseMat(2, 2, {(0, 0): 1, (1, 1): 1})
    rank, kernel, image = rank_kernel_image(ident)
    assert rank == 2 and kernel == [] and len(image) == 2
    zero = SparseMat(1, 1, {})
    rank, kernel, image = rank_kernel_image(zero)
    assert rank == 0 and len(kernel) == 1 and image == []


def test_rank_row_matrix():
    # the differential component matrix (coefficients 3, 1) of a 1x2 arrow
    m = SparseMat(1, 2, {(0, 0): 3, (0, 1): 1})
    rank, kernel, image = rank_kernel_image(m)
    assert rank == 1 and len(kernel) == 1
    v = kernel[0]
    assert 3 * v.get(0, 0) + 1 * v.get(1, 0) == 0


def test_rank_nullity_and_kernel_exactness():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.4:
                    entries[(i, j)] = Fraction(rng.randint(-4, 4))
        m = SparseMat(rows, cols, entries)
        rank, kernel, image = rank_kernel_image(m)
        assert rank + len(kernel) == cols
        assert len(image) == rank
        for v in kernel:
            assert m.apply(v) == {}


def _deficient_rows(rng):
    """8x8 rational rows whose last rows are integer combinations of the first."""
    base = [[Fraction(rng.randint(-5, 5)) for _ in range(8)] for _ in range(rng.randint(3, 7))]
    combos = [[rng.randint(-2, 2) for _ in base] for _ in range(8 - len(base))]
    return base + [[sum(c * r[j] for c, r in zip(cs, base)) for j in range(8)] for cs in combos]


def test_rank_agrees_with_dense_oracle():
    for f in (QQ, PrimeField(3), PrimeField(5)):
        rng, low = random.Random(4), random.Random(9)
        extra_in_span = set()
        for k in range(20):
            if k < 15:
                rows = [[Fraction(rng.randint(-5, 5)) for _ in range(8)] for _ in range(8)]
            else:  # rank below 8, so an extra vector can leave the span over Q too
                rows = _deficient_rows(low)
            m = SparseMat.from_rows(rows, f)
            rank, _, _ = rank_kernel_image(m)
            assert rank == dense_rank(rows, f), f
            # the untagged elimination keeps the same columns and spans them
            cols = m.columns()
            ech = TrackedEchelon(f)
            pivots = ech.independent(cols)
            assert list(pivots) == TrackedEchelon(f).kernel_of_columns(cols)[1]
            assert sorted(pivots.values()) == sorted(ech.rows)
            assert all(not ech.reduce(c)[0] for c in cols)
            # insert keeps the one row form: no stored row is back-substituted
            ech = TrackedEchelon(f)
            for c in cols:
                before = {pc: dict(row) for pc, row in ech.rows.items()}
                ech.insert(c)
                assert all(ech.rows[pc] == row for pc, row in before.items())
            assert ech.rank == rank
            assert all(not ech.reduce(c)[0] for c in cols)
            extra = [Fraction(rng.randint(-5, 5)) for _ in range(8)]
            extra_rank = dense_rank([list(r) + [x] for r, x in zip(rows, extra)], f)
            residue, _ = ech.reduce({i: f.of(x) for i, x in enumerate(extra)})
            assert (not residue) == (extra_rank == rank)
            extra_in_span.add(not residue)
            for pc, row in ech.rows.items():
                assert row[pc] == f.one and min(row) == pc
        assert extra_in_span == {True, False}, f


def test_multiplier_solve_matches_the_tag_route():
    # a tagged insert records its multipliers; solve's forward and back
    # substitution through them must give the residue and an h on the
    # independent tags that rebuild the vector
    for f in (QQ, PrimeField(3), PrimeField(5)):
        rng, low = random.Random(6), random.Random(8)
        for k in range(12):
            if k < 8:
                rows = [[Fraction(rng.randint(-3, 3)) for _ in range(7)] for _ in range(7)]
            else:
                rows = _deficient_rows(low)
            cols = SparseMat.from_rows(rows, f).columns()
            ech, tagged = TrackedEchelon(f), TrackedEchelon(f)
            pivots = [j for j, c in enumerate(cols) if ech.insert(c, tag=j) is not None]
            assert tagged.kernel_of_columns(cols)[1] == pivots
            assert [t for t, _, _ in ech.multipliers.values()] == pivots
            for _ in range(4):
                vec = {i: f.of(rng.randint(-4, 4)) for i in range(len(rows))}
                residue, h = ech.solve(vec)
                assert residue == ech.reduce(vec)[0] and set(h) <= set(pivots)
                back = dict(residue)
                for j, x in h.items():
                    for i, v in cols[j].items():
                        back[i] = f.add(back.get(i, f.zero), f.mul(x, v))
                assert {i: x for i, x in back.items() if not f.is_zero(x)} == {
                    i: x for i, x in vec.items() if not f.is_zero(x)}


def test_a_kernel_vector_makes_linearly_many_field_multiplications(monkeypatch):
    # the chained columns e_0, e_0 + e_1, ..., e_(n-2) + e_(n-1), e_(n-1): the
    # first n pivot and the last is their alternating sum.  Storing the n
    # rows makes n multiplications and the back substitution through the
    # multipliers 2n - 1; an explicit inverse (a combination of j inputs per
    # row j) would fill in and make n^2 + 2n
    for n in (64, 128):
        cols = [{0: 1}] + [{j - 1: 1, j: 1} for j in range(1, n)] + [{n - 1: 1}]
        calls = []
        real = QQ.mul
        monkeypatch.setattr(QQ, "mul", lambda x, y: calls.append(1) or real(x, y))
        kernel, pivots = TrackedEchelon(QQ).kernel_of_columns(cols)
        monkeypatch.undo()
        assert len(calls) == 3 * n - 1
        assert pivots == list(range(n)) and len(kernel) == 1
        v = kernel[0]
        m = SparseMat(n, n + 1, {(i, j): x for j, c in enumerate(cols) for i, x in c.items()})
        assert v[n] == 1 and m.apply(v) == {}


def test_kernel_basis_normal_form():
    # the basis HomologyData.reps and the MinusPages goldens rely on: pivot
    # columns are those raising the dense rank of the leading columns, and
    # each dependent column j gives the kernel vector e_j - (earlier pivots)
    for f in (QQ, PrimeField(5)):
        rng = random.Random(12)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
            rows = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                    for _ in range(nrows)]
            prefix = [dense_rank([r[:j] for r in rows], f) for j in range(ncols + 1)]
            pivots = [j for j in range(ncols) if prefix[j + 1] > prefix[j]]
            free = [j for j in range(ncols) if j not in pivots]
            m = SparseMat.from_rows(rows, f)
            rank, kernel, image = rank_kernel_image(m)
            assert rank == len(pivots)
            assert image == [m.columns()[j] for j in pivots]
            assert len(kernel) == len(free)
            for j, v in zip(free, kernel):
                assert v[j] == f.one
                assert set(v) <= {j} | {p for p in pivots if p < j}
                assert m.apply(v) == {}


def test_rank_kernel_and_homology_over_q_with_non_unit_pivots():
    # entries in -4..4, so pivots 2, 3, 4 occur and rows pick up fractions
    rng = random.Random(11)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        want = dense_rank(rows)
        m = SparseMat.from_rows(rows)
        rank, kernel, image = rank_kernel_image(m)
        assert rank == want and len(kernel) == ncols - want and len(image) == want
        # the same matrix as the boundary C_1 -> C_0 of a two-term complex
        cx = FiniteComplex(QQ)
        for i in range(nrows):
            cx.add_generator(0, i)
        for j in range(ncols):
            cx.add_generator(1, j)
            cx.set_boundary(1, j, {i: rows[i][j] for i in range(nrows)})
        h = HomologyData(cx)
        assert h.rank_boundary[1] == want
        assert h.dim(1) == ncols - want and h.dim(0) == nrows - want
        for v in kernel + h.cycle_basis[1]:
            assert v and m.apply(v) == {}
            assert all(sum(rows[i][j] * x for j, x in v.items()) == 0 for i in range(nrows))


def _random_complex(rng, f, dims):
    """A complex with dims[n] generators in degree n over f: d_1 has entries
    in -4..4 (so pivots 2, 3 and 4 occur), and each higher d_n has columns
    that are small combinations of a kernel basis of d_(n-1)."""
    cx = FiniteComplex(f)
    for n, k in enumerate(dims):
        for i in range(k):
            cx.add_generator(n, i)
    for j in range(dims[1]):
        cx.set_boundary(1, j, {i: rng.randint(-4, 4) for i in range(dims[0]) if rng.random() < 0.7})
    for n in range(2, len(dims)):
        _, kernel, _ = rank_kernel_image(SparseMat(
            dims[n - 2], dims[n - 1],
            {(i, j): v for j, col in enumerate(cx.boundary[n - 1]) for i, v in col.items()}, f))
        for j in range(dims[n]):
            img = {}
            for vec in kernel:
                c = rng.randint(-2, 2)
                for i, v in vec.items():
                    img[i] = f.add(img.get(i, f.zero), f.mul(f.of(c), v))
            cx.set_boundary(n, j, img)
    cx.check_dd_zero()
    return cx


def _dense(vec, size, f):
    return [vec.get(i, f.zero) for i in range(size)]


@pytest.mark.parametrize("f", [QQ, PrimeField(5)], ids=str)
def test_homology_data_against_the_dense_oracle(f):
    rng = random.Random(21)
    for _ in range(25):
        dims = [rng.randint(1, 6) for _ in range(4)]
        cx = _random_complex(rng, f, dims)
        h = HomologyData(cx)
        for n, size in enumerate(dims):
            d_n = [_dense(col, dims[n - 1], f) for col in cx.boundary_columns(n)] if n else []
            bounds = [_dense(col, size, f) for col in cx.boundary_columns(n + 1)]
            rank_d = dense_rank(d_n, f) if n else 0
            rank_b = dense_rank(bounds, f) if bounds else 0
            assert h.rank_boundary[n] == rank_d
            assert h.dim(n) == (size - rank_d) - rank_b
            # greedy rule: a cycle is kept iff it is independent of the
            # boundaries plus the representatives kept before it
            kept = []
            for z in h.cycle_basis[n]:
                rows = bounds + [_dense(r, size, f) for r in kept]
                before = dense_rank(rows, f) if rows else 0
                grows = dense_rank(rows + [_dense(z, size, f)], f) > before
                assert grows == any(z is r for r in h.reps[n])
                if grows:
                    kept.append(z)
            assert kept == h.reps[n]
            # coords of a combination of representatives plus a boundary
            want = {i: f.of(rng.randint(-3, 3)) for i in range(len(kept))}
            want = {i: c for i, c in want.items() if not f.is_zero(c)}
            vec = {}
            for i, c in want.items():
                for r, v in kept[i].items():
                    vec[r] = f.add(vec.get(r, f.zero), f.mul(c, v))
            for col in cx.boundary_columns(n + 1):
                c = f.of(rng.randint(-2, 2))
                for r, v in col.items():
                    vec[r] = f.add(vec.get(r, f.zero), f.mul(c, v))
            assert h.coords(n, vec) == want
            # a chain with a nonzero boundary is no cycle class
            for j, col in enumerate(cx.boundary_columns(n)):
                if col:
                    assert h.coords(n, {**vec, j: f.add(vec.get(j, f.zero), f.one)}) is None
                    break


def test_homology_reads_eliminate_one_degree_and_the_one_above(monkeypatch):
    # a read of degree n eliminates d_n (its cycles) and d_(n+1) (its
    # boundaries), once each, and no other degree
    cx = _random_complex(random.Random(4), QQ, [3, 5, 6, 5, 4, 2])
    calls, degrees = [], []
    real_kernel, real_columns = TrackedEchelon.kernel_of_columns, cx.boundary_columns

    def kernel_of_columns(self, columns):
        calls.append(1)
        return real_kernel(self, columns)

    def boundary_columns(n):
        degrees.append(n)
        return real_columns(n)

    monkeypatch.setattr(TrackedEchelon, "kernel_of_columns", kernel_of_columns)
    monkeypatch.setattr(cx, "boundary_columns", boundary_columns)
    h = HomologyData(cx)
    assert calls == [] and degrees == []
    h.dim(2)
    assert len(calls) == 2 and sorted(degrees) == [2, 3]
    h.coords(2, {})
    h.reps_in(2)
    assert len(calls) == 2
    h.dim(3)  # d_3 is known: only d_4 is new
    assert len(calls) == 3 and sorted(degrees) == [2, 3, 4]
    h.dim(5)  # the top degree has no boundaries
    assert len(calls) == 4 and sorted(degrees) == [2, 3, 4, 5]
    assert h.dim(7) == 0 and h.coords(7, {}) == {} and len(calls) == 4
    h.dims()
    assert len(calls) == 6 and sorted(degrees) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("f", [QQ, PrimeField(5)], ids=str)
def test_lazy_homology_matches_the_forced_one(f):
    # degrees read one at a time, in a random order and through each reader,
    # give what a HomologyData with every degree filled first gives
    rng = random.Random(33)
    for _ in range(25):
        dims = [rng.randint(1, 6) for _ in range(5)]
        cx = _random_complex(rng, f, dims)
        forced = HomologyData(cx)
        forced.dims()
        lazy = HomologyData(cx)
        order = list(range(-1, len(dims) + 1))
        rng.shuffle(order)
        for n in order:
            vec = {i: f.of(rng.randint(-2, 2)) for i in range(dims[n] if 0 <= n < len(dims) else 0)}
            for z in forced.reps_in(n):  # a cycle: a combination of representatives
                c = f.of(rng.randint(-2, 2))
                for r, v in z.items():
                    vec[r] = f.add(vec.get(r, f.zero), f.mul(c, v))
            reader = rng.choice(("dim", "coords", "reps_in"))
            if reader == "dim":
                assert lazy.dim(n) == forced.dim(n)
            elif reader == "coords":
                assert lazy.coords(n, vec) == forced.coords(n, vec)
            else:
                assert lazy.reps_in(n) == forced.reps_in(n)
        assert lazy.reps == forced.reps
        assert lazy.rank_boundary == forced.rank_boundary
        assert lazy.cycle_basis == forced.cycle_basis
        for n in cx.degrees():
            cycle = {}
            for z in forced.reps_in(n):
                c = f.of(rng.randint(-2, 2))
                for r, v in z.items():
                    cycle[r] = f.add(cycle.get(r, f.zero), f.mul(c, v))
            assert lazy.coords(n, cycle) == forced.coords(n, cycle)


def _rebuilt(cx, coerce, store_raw=False):
    """A copy of cx whose boundary values are coerce(v); with store_raw the
    values bypass the field's coercion and are stored as given."""
    out = FiniteComplex(QQ)
    for n in cx.degrees():
        for label in cx.basis[n]:
            out.add_generator(n, label)
    for n in cx.degrees():
        lower = cx.basis.get(n - 1, [])
        for pos, col in enumerate(cx.boundary_columns(n)):
            if store_raw:
                out.boundary[n][pos] = {r: coerce(v) for r, v in col.items()}
            else:
                out.set_boundary(n, cx.basis[n][pos], {lower[r]: coerce(v) for r, v in col.items()})
    return out


def test_fraction_and_int_inputs_give_the_same_homology():
    # I* boundaries carry the labels 3 and 4, so elimination divides
    w = build_model(I_STAR, BAR).window(Window(-13, 11, -12, 14))
    for flavor in (MINUS, PLUS):
        cx = functor_model(w, flavor, -12, 14).complex
        assert {3, 4} <= {v for cols in cx.boundary.values() for col in cols for v in col.values()}
        h_int = HomologyData(_rebuilt(cx, int))
        assert any(h_int.dims().values())
        for other in (_rebuilt(cx, Fraction), _rebuilt(cx, Fraction, store_raw=True)):
            h = HomologyData(other)
            assert h.dims() == h_int.dims()
            assert h.reps == h_int.reps
            assert h.rank_boundary == h_int.rank_boundary


def test_rank_transpose_invariance():
    # rank computed along a different pivot order (the transpose) agrees
    rng = random.Random(5)
    for _ in range(15):
        entries = {(rng.randint(0, 5), rng.randint(0, 5)): Fraction(rng.randint(-3, 3))
                   for _ in range(12)}
        m = SparseMat(6, 6, entries)
        r1, _, _ = rank_kernel_image(m)
        r2, _, _ = rank_kernel_image(m.transpose())
        assert r1 == r2


def test_rank_determinism():
    entries = {(0, 1): 2, (1, 0): 3, (1, 1): 1, (2, 2): 5}
    a = rank_kernel_image(SparseMat(3, 3, entries))
    b = rank_kernel_image(SparseMat(3, 3, dict(entries)))
    assert a == b


def test_echelon_reduce_handles_gaps():
    # regression: a vector whose smallest index is pivotless must still be
    # reduced at its larger pivot columns
    e = TrackedEchelon(QQ)
    e.insert({0: Fraction(1)})
    e.insert({2: Fraction(1)})
    residue = e.reduce({1: Fraction(4), 2: Fraction(4)})[0]
    assert residue == {1: Fraction(4)}


def test_echelon_rank_over_prime_field():
    f = PrimeField(3)
    e = TrackedEchelon(f)
    e.insert({0: 1, 1: 2})
    e.insert({0: 2, 1: 1})  # = 2 * first over F3
    assert e.rank == 1


def test_rank_of_model_arrow_matrix():
    # the coefficients of the level 4 -> 0 arrow of the octahedral model,
    # assembled into a matrix and fed to the exact elimination
    from bpfloer.donaldson import BAR, Gen, build_model
    from bpfloer.groups import O_STAR

    model = build_model(O_STAR, BAR)
    sources = [Gen("alpha", 0, 4), Gen("eta", 0, 4)]
    entries = {}
    for j, src in enumerate(sources):
        for tgt, c in model.differential(src).items():
            assert tgt == Gen("beta", 3, 0)
            entries[(0, j)] = c
    assert sorted(entries.values()) == [1, 3]
    m = SparseMat(1, 2, entries)
    rank, kernel, _ = rank_kernel_image(m)
    assert rank == 1 and len(kernel) == 1


class _CountingList(list):
    """A basis list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_chain_map_builds_each_degree_once():
    # filling a degree of n generators walks its basis once, not once per
    # set_image call (which made the fill O(n^2))
    n = 300
    cx = FiniteComplex(QQ)
    for i in range(n):
        cx.add_generator(0, i)
    cx.basis[0] = basis = _CountingList(cx.basis[0])
    u = ChainMap(cx, cx, 0)
    for i in range(n):
        u.set_image(0, i, {(i + 1) % n: i + 1, i: -1, "off the complex": 5})
    assert basis.iterations == 1
    assert u.columns[0] == [{(i + 1) % n: i + 1, i: -1} for i in range(n)]
