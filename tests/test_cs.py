"""Chern-Simons invariants and group cohomology."""
import random
from fractions import Fraction

import pytest

from bpfloer.cs import (
    BAR,
    STD,
    CsValue,
    c2_class,
    chern_simons,
    cs_difference,
    cs_table,
    group_cohomology,
    q_vertex,
)
from bpfloer.errors import BPFloerError
from bpfloer.groups import (
    I_STAR,
    O_STAR,
    T_STAR,
    binary_dihedral,
    cyclic,
    quaternionic_reps,
)
from bpfloer.mckay import s_graph

ALL_GROUPS = (
    [cyclic(k) for k in range(1, 13)]
    + [binary_dihedral(k) for k in range(2, 13)]
    + [T_STAR, O_STAR, I_STAR]
)


def test_trivial_connection():
    for g in (T_STAR, cyclic(7), binary_dihedral(4)):
        assert chern_simons(g, "theta").value == 0
        assert chern_simons(g, "theta", BAR).value == 0


def test_tetra_golden_values():
    assert chern_simons(T_STAR, "alpha", STD).value == Fraction(23, 24)
    assert chern_simons(T_STAR, "lambda", STD).value == Fraction(1, 3)
    assert chern_simons(T_STAR, "alpha", BAR).value == Fraction(1, 24)


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_canonical_vertex_value(g):
    v = chern_simons(g, q_vertex(g), STD)
    want = Fraction(g.order - 1, g.order) if g.order > 1 else Fraction(0)
    assert v.value == want


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_denominators_divide_order(g):
    for name, v, _ in cs_table(g):
        assert g.order % v.value.denominator == 0


def test_orientation_reversal_negates():
    for g in (T_STAR, O_STAR, binary_dihedral(5)):
        for q in quaternionic_reps(g):
            a = chern_simons(g, q.name, STD)
            b = chern_simons(g, q.name, BAR)
            assert (a.value + b.value) % 1 == 0


def test_path_independence_random_pairs():
    rng = random.Random(13)
    for _ in range(20):
        g = rng.choice(ALL_GROUPS)
        names = [q.name for q in quaternionic_reps(g)]
        a, b = rng.choice(names), rng.choice(names)
        walk = (chern_simons(g, a).value - chern_simons(g, b).value) % 1
        assert walk == cs_difference(g, a, b) % 1


def test_c2_values():
    assert c2_class(T_STAR, "theta").residue == 0
    assert c2_class(T_STAR, "alpha").residue == 1       # canonical representation
    assert c2_class(T_STAR, "lambda").residue == 16
    for g in (O_STAR, I_STAR, binary_dihedral(6), cyclic(9)):
        assert c2_class(g, q_vertex(g)).residue == 1


@pytest.mark.parametrize("orientation", [STD, BAR])
def test_cs_table_walks_each_path_once(monkeypatch, orientation):
    import bpfloer.cs as cs

    g = binary_dihedral(8)
    want = [(n, v, c2_class(g, n)) for n, v, _ in cs_table(g, orientation)]
    calls = []
    real = cs.chern_simons

    def counting(g, name, orientation=STD):
        calls.append(name)
        return real(g, name, orientation)

    monkeypatch.setattr(cs, "chern_simons", counting)
    assert cs_table(g, orientation) == want
    assert sorted(calls) == sorted(q.name for q in quaternionic_reps(g))


@pytest.mark.parametrize("g", ALL_GROUPS, ids=str)
def test_direct_solve_matches_the_tree_walk(g):
    sg = s_graph(g)
    for v in sg.vertices:
        path = sg.path("theta", v.name)
        walk = sum(cs_difference(g, b, a) for a, b in zip(path, path[1:]))
        assert chern_simons(g, v.name, STD).value == walk % 1
        assert chern_simons(g, v.name, BAR).value == -walk % 1


def test_cs_table_solves_once_per_flat_connection(monkeypatch):
    import bpfloer.cs as cs

    g = binary_dihedral(8)
    calls = []
    real = cs.solve_rep_equation

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cs, "solve_rep_equation", counting)
    cs_table(g)
    assert len(calls) == len(quaternionic_reps(g)) == 8


def test_unknown_flat_connection_is_an_error():
    with pytest.raises(BPFloerError, match=r"T\* has no flat connection 'nope'"):
        cs_difference(T_STAR, "nope", "theta")
    with pytest.raises(BPFloerError, match=r"T\* has no flat connection 'nope'"):
        chern_simons(T_STAR, "nope")


def test_cohomology_table():
    assert str(group_cohomology(cyclic(4), 0)) == "Z"
    assert str(group_cohomology(I_STAR, 2)) == "0"          # perfect group
    assert str(group_cohomology(O_STAR, 4)) == "Z/48"
    assert str(group_cohomology(T_STAR, 2)) == "Z/3"
    assert str(group_cohomology(binary_dihedral(4), 2)) == "Z/2 + Z/2"
    assert str(group_cohomology(binary_dihedral(5), 6)) == "Z/4"
    for i in (1, 3, 5, 7):
        assert str(group_cohomology(O_STAR, i)) == "0"
    assert str(group_cohomology(cyclic(6), 8)) == "Z/6"


def test_cs_value_normalization():
    assert CsValue.of(Fraction(-1, 24)).value == Fraction(23, 24)
    assert CsValue.of(Fraction(9, 8)).value == Fraction(1, 8)
    assert (CsValue.of(Fraction(1, 3)) + CsValue.of(Fraction(2, 3))).value == 0
