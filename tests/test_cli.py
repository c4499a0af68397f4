"""CLI surface: subcommands, formats, determinism, exit codes."""
import json
import os
import sys

import pytest

from bpfloer.cli import _verify_group, main
from bpfloer.donaldson import BAR, STD
from bpfloer.equivariant import MINUS, PLUS
from bpfloer.errors import DecompositionFailure
from bpfloer.fields import PrimeField, QQ
from bpfloer.floer import PAIRS
from bpfloer.groups import T_STAR, cyclic


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_groups_listing(capsys):
    code, out = run_cli(capsys, "groups")
    assert code == 0 and "T*" in out and "order" in out


def test_repr_table_text_and_json(capsys):
    code, out = run_cli(capsys, "repr", "table", "T*")
    assert code == 0 and "rho4" in out and "H" in out
    code, out = run_cli(capsys, "repr", "table", "T*", "--format", "json")
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["order"] == 24
    assert len(doc["characters"]) == 7


def test_mckay_and_sgraph(capsys):
    code, out = run_cli(capsys, "mckay", "graph", "O*")
    assert code == 0 and "E~7" in out
    code, out = run_cli(capsys, "sgraph", "I*", "--dot")
    assert code == 0 and '"(3|4)"' in out
    code, out = run_cli(capsys, "sgraph", "D*_6", "--json")
    doc = json.loads(out)
    labels = {(e["a"], e["b"]): e["label"] for e in doc["edges"]}
    assert labels[("alpha1", "alpha2")] == "(2|2)"


def test_dci_window(capsys):
    code, out = run_cli(capsys, "dci", "T*", "--window=-1:8", "--degrees=0:11")
    assert code == 0 and "(0, 0): 2" in out
    code, out = run_cli(capsys, "dci", "T*", "--window=-1:8", "--degrees=0:11",
                        "--format", "json")
    doc = json.loads(out)
    assert doc["group"] == "T*"
    assert any(d["coeff"] == 3 for d in doc["differentials"])


def test_dci_prints_the_window_differential_over_the_field(capsys):
    args = ("dci", "T*", "--window=-1:8", "--degrees=0:11")
    code, out = run_cli(capsys, *args)
    assert code == 0 and "d(lambda[t=0,l=8]) = alpha[t=3,l=4] x3" in out
    # over F_3 the label 3 vanishes: theta -> alpha is the window's only column
    code, out = run_cli(capsys, *args, "--coeff", "fp:3")
    comps = [line for line in out.splitlines() if line.startswith("  d(")]
    assert code == 0 and comps == ["  d(theta[t=0,l=8]) = alpha[t=3,l=4] x1"]
    code, out = run_cli(capsys, *args, "--coeff", "fp:3", "--format", "json")
    diffs = json.loads(out)["differentials"]
    assert code == 0 and [(d["from"], d["coeff"]) for d in diffs] == [("theta[t=0,l=8]", 1)]


def test_dci_empty_window_json(capsys):
    code, out = run_cli(capsys, "dci", "T*", "--window=0:1", "--degrees=0:0",
                        "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["generators"] == []


def test_floer_command(capsys):
    code, out = run_cli(capsys, "floer", "O*", "--flavor", "-")
    assert code == 0
    assert "degeneration page: 5" in out and "PASS" in out
    code, out = run_cli(capsys, "floer", "T*", "--flavor", "+", "--coeff", "fp:5")
    assert code == 0 and "chain-route vs the closed form: PASS" in out
    code, out = run_cli(capsys, "floer", "T*", "--orientation", "std", "--flavor", "inf",
                        "--format", "json")
    doc = json.loads(out[out.index("}\n{") + 2:])
    assert code == 0 and doc["checks"][0]["check"] == "chain-route-vs-closed-form"
    assert "U-rank comparisons made" in doc["checks"][0]["detail"]
    # the report records the window it compared on: GroupRun(T*).comparison_window()
    assert doc["config"]["window"] == {"q": -16, "p": 16, "n_lo": -16, "n_hi": 16}
    # one flag replaces the whole default: the other range is -24:24
    code, out = run_cli(capsys, "floer", "T*", "--window=-20:20", "--format", "json")
    doc = json.loads(out[out.index("}\n{") + 2:])
    assert code == 0 and doc["config"]["window"] == {"q": -20, "p": 20, "n_lo": -24, "n_hi": 24}
    # a window too narrow for the level margin leaves nothing to compare
    code, out = run_cli(capsys, "floer", "D*_12", "--window=-16:16", "--degrees=-16:16")
    assert code == 1 and "FAIL (0 safe degrees" in out
    # the default window comes from the comparison window, so a late degeneration
    # page (r_last = 5) still leaves the full -7..7 interior
    code, out = run_cli(capsys, "floer", "D*_18", "--flavor", "-")
    assert code == 0 and "PASS (15 safe degrees" in out


def test_floer_raw(capsys):
    code, out = run_cli(capsys, "floer-raw", "T*", "--flavor", "-",
                        "--window=-8:8", "--degrees=-8:8", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["homology_dims"]


def test_floer_raw_prints_the_bars_at_the_edge_degrees(capsys):
    # floer-raw prints the bars of the source window's reduction.  U leaves
    # the window out of its two lowest degrees, so they have no rank U, and
    # -8 has the 4 bars through it, not the 6 classes of the truncated model
    # (every chain there is a cycle); -4..8 are the model's homology
    argv = ("floer-raw", "T*", "--flavor=-", "--window=-8:8", "--degrees=-8:8")
    code, out = run_cli(capsys, *argv)
    rows = [line.split() for line in out.splitlines() if line.startswith("  H_")]
    assert code == 0 and rows[:2] == [["H_-8", "dim", "4"], ["H_-6", "dim", "2"]]
    code, out = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    dims = {"-4": 4, "-2": 2, "0": 3, "2": 2, "4": 2, "6": 1, "8": 1}
    assert doc["homology_dims"] == {"-8": 4, "-6": 2, **dims}
    assert doc["u_ranks"] == dims  # rank U = dim from -4 up, no key -8 or -6


def test_floer_raw_fails_on_an_empty_triangle_interior(capsys):
    # the README window checks 6 degrees; at width 9 the interior is empty
    code, out = run_cli(capsys, "floer-raw", "O*", "--flavor", "inf",
                        "--window=-8:8", "--degrees=-8:8", "--format", "json")
    assert code == 0 and len(json.loads(out)["triangle_report"]["checked_degrees"]) == 6
    code = main(["floer-raw", "T*", "--window=-4:4", "--degrees=-4:4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: the cone triangle checked no interior degree: "
                            "widen --window and --degrees\n")


def count_builds(monkeypatch, *classes):
    """Record every instance of the classes built from now on, by class name,
    with the names of the functions on the stack when it was built."""
    built = []
    for cls in classes:
        def counted(self, *args, real=cls.__init__, name=cls.__name__):
            frame, callers = sys._getframe(1), set()
            while frame is not None:
                callers.add(frame.f_code.co_name)
                frame = frame.f_back
            built.append((name, self, callers))
            real(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_floer_raw_builds_each_flavor_once(capsys, monkeypatch):
    # one GroupRun builds each flavor's model and homology for the cone
    # triangle check; the printed homology is the bars of its reduction
    from bpfloer.chains import HomologyData
    from bpfloer.equivariant import FunctorModel

    built = count_builds(monkeypatch, FunctorModel, HomologyData)
    code, _ = run_cli(capsys, "floer-raw", "T*", "--flavor", "-")
    assert code == 0
    names = [name for name, _, _ in built]
    assert (names.count("FunctorModel"), names.count("HomologyData")) == (3, 3)


def test_floer_builds_the_pages_once(capsys, monkeypatch):
    # the page table, the assembly, the comparison window and the pages
    # route of (bar, -) all read one MinusPages
    from bpfloer.floer import MinusPages

    built = count_builds(monkeypatch, MinusPages)
    code, out = run_cli(capsys, "floer", "D*_7", "--flavor", "-")
    assert code == 0 and "degeneration page" in out
    assert len(built) == 1
    built.clear()
    code, out = run_cli(capsys, "floer", "D*_7", "--orientation", "std", "--flavor", "+")
    assert code == 0 and len(built) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("orientation, flavor", PAIRS, ids="/".join)
def test_floer_says_how_each_pair_was_made(capsys, orientation, flavor, fmt):
    # (bar, -) is assembled from the pages and (std, +) through their dual;
    # the other four pairs show their closed form, and only the page run
    # prints a page table and a degeneration page
    code, out = run_cli(capsys, "floer", "T*", "--orientation", orientation,
                        "--flavor", flavor, "--format", fmt)
    paged = (orientation, flavor) == (BAR, MINUS)
    what = "assembled" if paged or (orientation, flavor) == (STD, PLUS) else "closed-form"
    assert code == 0
    if fmt == "json":
        cut = out.index("}\n{") + 1
        module, report = json.loads(out[:cut]), json.loads(out[cut:])
        assert module["module"] == "%s T* %s %s" % (what, orientation, flavor)
        assert report["all_pass"]
    else:
        assert out.startswith("%s module for T*" % what)
        assert "chain-route vs the closed form: PASS" in out
        assert ("assembled through the duality" in out) == ((orientation, flavor) == (STD, PLUS))
    shows_pages = paged and fmt == "text"
    assert ("stable page table" in out) == ("degeneration page" in out) == shows_pages
    assert "degeneration page: 5" in out or not shows_pages


def test_verify_shares_one_computation_per_group(capsys, monkeypatch):
    # the assembly and triangle checks read one GroupRun.  The chain route
    # reads all six pairs off one reduction per orientation, made straight
    # off the model: it materializes no window and builds no flavor model;
    # the triangle check builds the three bar models and their
    # homologies; the (bar, -) pages run once.  The bar oracle and the
    # accounting build their own: 2 models each, and the accounting 2
    # homologies.  Before the reduction this was 10 models and 8 homologies,
    # and before the sharing 13 models, 15 homologies and 4 page runs.
    from bpfloer.chains import HomologyData
    from bpfloer.equivariant import TATE, FunctorModel, UReduction
    from bpfloer.floer import GroupRun, MinusPages

    built = count_builds(monkeypatch, FunctorModel, HomologyData, MinusPages, UReduction,
                         GroupRun)
    code, out = run_cli(capsys, "verify", "--groups", "T*")
    assert code == 0 and "verify: PASS" in out
    count = lambda name: sum(b[0] == name for b in built)
    assert (count("FunctorModel"), count("HomologyData"), count("MinusPages"),
            count("UReduction")) == (7, 5, 1, 2)
    (owner,) = [b[1] for b in built if b[0] == "GroupRun"]
    assert sorted(owner._reductions) == [(o, owner.comparison_window()[0].source)
                                         for o in (BAR, STD)]
    # the triangle's three models share one source window
    triangle = [b[1] for b in built
                if b[0] == "FunctorModel" and "norm_vanishing_and_splitting" in b[2]]
    assert [fm.flavor for fm in triangle] == [PLUS, MINUS, TATE]
    assert len({id(fm.source) for fm in triangle}) == 1
    shared = {id(fm) for fm in triangle}
    for callers in ("bar_oracle", "ss_accounting"):
        own = [b[1] for b in built if b[0] == "FunctorModel" and callers in b[2]]
        assert len(own) == 2 and not shared & {id(fm) for fm in own}, callers


def test_accounting_says_what_it_compared(monkeypatch):
    def accounting_row():
        (row,) = [c for c in _verify_group(T_STAR, QQ)
                  if c[0] == "spectral-sequence-accounting"]
        return row[2:4]

    assert accounting_row() == ("PASS", "pages vs direct homology; bar/-: 13 degrees, "
                                "8 nonzero, 13 levels, 11 E^inf entries; std/+: 14 degrees, "
                                "8 nonzero, 15 levels, 16 E^inf entries")
    # a comparison over no nonzero homology shows nothing and must not pass
    monkeypatch.setattr("bpfloer.cli.ss_accounting", lambda *a, **k: {})
    status, detail = accounting_row()
    assert status == "FAIL" and "no degree with nonzero homology" in detail
    monkeypatch.undo()

    # the gate compares each degree's per-level sum: one level's E^infinity
    # dropped in one degree must fail it
    from bpfloer.chains import FilteredPages

    real = FilteredPages.einfty_row

    def drop_one_level(self, n):
        row = real(self, n)
        if n == 0:
            row[max(s for s, d in row.items() if d)] = 0
        return row

    monkeypatch.setattr(FilteredPages, "einfty_row", drop_one_level)
    status, detail = accounting_row()
    assert status == "FAIL" and "accounting fails in degree 0: 0 != 1" in detail


def test_assembly_names_its_module_windows():
    # the encoded side's window elements, plain bars and linked elements,
    # summed over the six pairs, and the page side's, each as ModuleWindow
    # counts them on the comparison window
    from bpfloer.donaldson import BAR
    from bpfloer.equivariant import MINUS
    from bpfloer.floer import PAIRS, GroupRun
    from bpfloer.presented import ModuleWindow
    from bpfloer.theorems import encoded_module

    (row,) = [c for c in _verify_group(T_STAR, QQ) if c[0] == "assembly-vs-closed-form"]
    run = GroupRun(T_STAR)
    win = run.comparison_window()[0]
    encoded = [sum(c) for c in zip(*(ModuleWindow(encoded_module(T_STAR, o, f), win).counts()
                                     for o, f in PAIRS))]
    pages = ModuleWindow(run.assembled(BAR, MINUS), win).counts()
    assert row[2] == "PASS" and row[3].endswith(
        "; encoded windows: %d elements, %d plain bars, %d linked; "
        "page window: %d elements, %d plain bars, %d linked" % (*encoded, *pages))
    assert encoded[2] and not pages[2]


def test_cs_command(capsys):
    code, out = run_cli(capsys, "cs", "T*", "--format", "json")
    doc = json.loads(out)
    vals = {row["name"]: row["cs"] for row in doc["flat_connections"]}
    assert vals == {"theta": "0", "alpha": "23/24", "lambda": "1/3"}


def test_json_determinism(capsys):
    _, out1 = run_cli(capsys, "sgraph", "O*", "--json")
    _, out2 = run_cli(capsys, "sgraph", "O*", "--json")
    assert out1 == out2
    _, out3 = run_cli(capsys, "floer-raw", "C_4", "--window=-6:6", "--degrees=-6:6",
                      "--format", "json")
    _, out4 = run_cli(capsys, "floer-raw", "C_4", "--window=-6:6", "--degrees=-6:6",
                      "--format", "json")
    assert out3 == out4
    # verify reports equal once the wall times are masked
    docs = []
    for _ in range(2):
        _, out = run_cli(capsys, "verify", "--groups", "C_3,T*", "--format", "json")
        doc = json.loads(out)
        assert doc["schema_version"] == 2 and doc["wall_time_s"] >= 0
        assert all(c["wall_s"] >= 0 for c in doc["checks"])
        doc["wall_time_s"] = None
        for c in doc["checks"]:
            c["wall_s"] = None
        docs.append(doc)
    assert docs[0] == docs[1]


def test_usage_errors():
    assert main(["repr"]) == 2  # missing arguments
    assert main(["nonsense"]) == 2


def test_even_prime_rejected_before_compute(capsys):
    code = main(["floer", "T*", "--coeff", "fp:2"])
    assert code == 2


def test_bad_group_is_an_error(capsys):
    code = main(["sgraph", "X17"])
    assert code == 1


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "bp.cfg"
    cfg.write_text("format = json\norientation = std\n")
    code, out = run_cli(capsys, "--config", str(cfg), "cs", "T*")
    doc = json.loads(out)
    assert doc["orientation"] == "std"
    # flags override the config
    code, out = run_cli(capsys, "--config", str(cfg), "cs", "T*", "--format", "text")
    assert "flat connections" in out


def test_verify_quick_subset(capsys):
    # verify has no --quick any more; the name is kept so the test id stays
    code, out = run_cli(capsys, "verify", "--groups", "C_3,D*_2")
    assert code == 0
    assert "verify: PASS" in out


def test_verify_json_round_trip(capsys):
    code, out = run_cli(capsys, "verify", "--groups", "C_3",
                        "--format", "json")
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(c["status"] == "PASS" for c in doc["checks"])


def test_verify_jobs_merge_order_independent(capsys):
    _, seq = run_cli(capsys, "verify", "--groups", "C_3,C_4")
    _, par = run_cli(capsys, "verify", "--groups", "C_3,C_4", "--jobs", "2")
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("verify:")]
    assert strip(seq) == strip(par)


def test_env_var_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("format = json\n")
    monkeypatch.setenv("BPFLOER_CONFIG", str(cfg))
    code, out = run_cli(capsys, "cs", "O*")
    doc = json.loads(out)
    assert code == 0 and doc["group"] == "O*"


def test_even_prime_in_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coeff = fp:2\n")
    code = main(["--config", str(cfg), "floer", "T*"])
    assert code == 2


def test_coeff_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("coeff = q\n")
    assert main(["--config", str(cfg), "floer", "T*", "--coeff", "fp:4"]) == 2
    assert "usage error:" in capsys.readouterr().err
    cfg.write_text("coeff = fp:4\n")
    code, out = run_cli(capsys, "--config", str(cfg), "floer", "T*", "--coeff", "q")
    assert code == 0 and "T*" in out


@pytest.mark.parametrize("argv, config", [
    (["verify", "--coeff", "fp:x"], None),
    (["verify", "--coeff", "fp:"], None),
    (["dci", "T*", "--window", "5"], None),
    (["dci", "T*", "--window", "a:b"], None),
    (["floer", "T*", "--degrees", "-8"], None),
    (["verify", "--jobs", "0"], None),
    (["verify"], "jobs = two\n"),
    (["verify"], "coeff = fp:x\n"),
    (["dci", "T*"], "window = 5\n"),
    (["floer-raw", "T*"], "degrees = a:b\n"),
    (["dci", "T*", "--window=5:3"], None),
    (["floer", "T*", "--window=3:3"], None),
    (["floer-raw", "T*", "--degrees=8:-8"], None),
    (["floer", "T*", "--degrees=8:-8"], None),
    (["dci", "T*"], "degrees = 8:-8\n"),
    (["floer", "T*"], "window = 5:3\n"),
    (["floer-raw", "T*"], "window = 4:4\n"),
], ids=["coeff-fp:x", "coeff-fp:", "window-5", "window-a:b", "degrees--8", "jobs-0",
        "config-jobs-two", "config-coeff-fp:x", "config-window-5", "config-degrees-a:b",
        "dci-window-5:3", "floer-window-3:3", "floer-raw-degrees-8:-8", "floer-degrees-8:-8",
        "config-dci-degrees-8:-8", "config-floer-window-5:3", "config-floer-raw-window-4:4"])
def test_malformed_values_are_usage_errors(tmp_path, capsys, argv, config):
    # an empty or inverted window is malformed too: it exits 2 before any compute
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: ")


def test_floer_report_carries_its_measured_wall_time(capsys):
    code, out = run_cli(capsys, "floer", "T*", "--format", "json")
    doc = json.loads(out[out.index("}\n{") + 2:])
    assert code == 0 and doc["wall_time_s"] > 0


def test_verify_wall_time_is_monotonic(capsys, monkeypatch):
    # verify times itself on perf_counter, so a wall clock stepped backwards
    # cannot give a negative duration
    import time

    clock = iter(range(10 ** 6, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    code, out = run_cli(capsys, "verify", "--groups", "C_2", "--format", "json")
    monkeypatch.undo()
    assert code == 0 and json.loads(out)["wall_time_s"] >= 0


def test_report_carries_tool_version(capsys):
    code, out = run_cli(capsys, "verify", "--groups", "C_3",
                        "--format", "json")
    doc = json.loads(out)
    assert doc["tool_version"]
    assert "wall_time_s" in doc and doc["config"]["groups"] == "C_3"


def test_verify_orthogonality_pass_reports_its_coverage():
    # T* has 7 irreps and 7 classes: 7 * 8 / 2 row pairs are compared
    checks = _verify_group(T_STAR, QQ)
    rows = [c for c in checks if c[0] == "character-table-orthogonality"]
    assert [c[2:4] for c in rows] == [("PASS", "rows: 28 pairs of a square 7x7 table")]


def test_verify_sgraph_pass_reports_its_mckay_certificate(monkeypatch):
    # T*'s McKay matrix is 7x7, every row re-summed on its 7 classes
    checks = _verify_group(T_STAR, QQ)
    rows = [c for c in checks if c[0] == "sgraph-structure"]
    assert [c[2:4] for c in rows] == [
        ("PASS", "McKay 7x7 re-summed on 7 classes; vertices+labels+gradings; "
                 "2 labels: deletion oracle = algebraic solve")]

    # s_graph of C_n never reads the McKay matrix, so the check computes it
    def refused(g):
        raise DecompositionFailure("re-summation mismatch in class 1")

    monkeypatch.setattr("bpfloer.cli.q_tensor_matrix", refused)
    rows = [c for c in _verify_group(cyclic(5), QQ) if c[0] == "sgraph-structure"]
    assert [c[2:4] for c in rows] == [
        ("FAIL", "DecompositionFailure: re-summation mismatch in class 1")]


def test_verify_fail_names_the_exception_class(monkeypatch):
    def broken(g):
        raise ZeroDivisionError("inverse of zero")

    monkeypatch.setattr("bpfloer.cli.verify_orthogonality", broken)
    checks = _verify_group(T_STAR, QQ)
    rows = [c for c in checks if c[0] == "character-table-orthogonality"]
    assert len(rows) == 1
    _, _, status, detail, _ = rows[0]
    assert status == "FAIL"
    assert detail.startswith("ZeroDivisionError")
    # the other checks still run and pass
    assert all(c[2] == "PASS" for c in checks if c is not rows[0])


def test_verify_cs_pass_reports_its_edges():
    # T*'s labeled graph is the path theta - alpha - lambda
    rows = [c for c in _verify_group(T_STAR, QQ) if c[0] == "cs-golden-values"]
    assert [c[2:4] for c in rows] == [
        ("PASS", "Q-vertex golden; 2 tree edges: vertex values vs edge solves; 5 solves")]


def test_verify_cs_counts_the_solves_it_makes(monkeypatch):
    # three vertex solves against theta and two edge solves on T*
    import bpfloer.cs as cs
    from bpfloer.cli import _check_cs

    calls = []
    real = cs.solve_rep_equation
    monkeypatch.setattr(cs, "solve_rep_equation", lambda *a: calls.append(a) or real(*a))
    detail = _check_cs(T_STAR)
    assert detail.endswith("; %d solves" % len(calls)) and len(calls) == 5


def test_verify_cs_catches_a_corrupted_edge_solve(monkeypatch):
    from fractions import Fraction

    from bpfloer.cs import cs_difference

    def corrupted(g, a, b):
        bump = Fraction(1, g.order) if {a, b} == {"alpha", "lambda"} else 0
        return cs_difference(g, a, b) + bump

    monkeypatch.setattr("bpfloer.cli.cs_difference", corrupted)
    rows = [c for c in _verify_group(T_STAR, QQ) if c[0] == "cs-golden-values"]
    assert len(rows) == 1
    _, _, status, detail, _ = rows[0]
    assert status == "FAIL"
    assert detail.startswith("BPFloerError: edge alpha-lambda")


def test_verify_duality_and_triangle_name_what_they_compared(monkeypatch):
    # T*: the standard window (-13, 11] has 15 generators
    rows = {c[0]: c[2:4] for c in _verify_group(T_STAR, QQ)}
    assert rows["orientation-duality"] == ("PASS", "transposed window on 15 generators")
    assert rows["triangle-and-norm"] == (
        "PASS", "even degrees: bar/+ closed form, bar/- assembled; models on degrees -12..8: "
                "nu a chain map on 45 '+' generators, cone(nu) = Tate on 92 generators; "
                "cone triangle on 15 degrees; H(nu) summed rank 0")

    # one edge label of the standard model off by one: its differential is
    # no longer the transpose of the reversed one, and only the duality
    # check reads that model through cli.build_model
    import bpfloer.cli as cli
    from bpfloer.donaldson import STD
    from bpfloer.groups import I_STAR
    from bpfloer.mckay import SGraph, s_graph

    real = cli.build_model
    for g, edge in ((T_STAR, ("alpha", "lambda")), (I_STAR, ("alpha", "beta"))):
        label = s_graph(g).labels[edge]

        def off_by_one(group, orientation):
            model = real(group, orientation)
            if orientation == STD:
                sg = model.sgraph
                labels = {**sg.labels, edge: label + 1}
                model.sgraph = SGraph(sg.group, sg.vertices, sg.edges, labels)
            return model

        with monkeypatch.context() as m:
            m.setattr(cli, "build_model", off_by_one)
            failed = {c[0]: c[3] for c in _verify_group(g, QQ) if c[2] != "PASS"}
        assert list(failed) == ["orientation-duality"], (str(g), failed)
        # [(source, target, standard coefficient, transposed coefficient)]
        detail = failed["orientation-duality"]
        assert detail.startswith("BPFloerError: [(%s[t=0," % edge[0]), detail
        assert ", %d, %d)" % (label + 1, label) in detail, detail


def raise_one(table, key):
    return {**table, key: table[key] + 1}


@pytest.mark.parametrize("module, name, bump, check, start", [
    # a T* rank raised by one in the golden multicomplex figure
    ("bpfloer.donaldson", "expected_toi_multicomplex",
     lambda ranks, arrows: (raise_one(ranks, (4, 3)), arrows),
     "model-multicomplex-figures", "BPFloerError: bidegree ranks differ"),
    # one T* label raised by one in the closed-form labeled graph
    ("bpfloer.mckay", "expected_s_graph_data",
     lambda edges, labels, gradings: (edges, raise_one(labels, ("alpha", "lambda")), gradings),
     "sgraph-structure", "BPFloerError: labels differ"),
], ids=["figure-rank", "sgraph-label"])
def test_verify_catches_a_planted_golden_value(monkeypatch, module, name, bump, check, start):
    import importlib

    mod = importlib.import_module(module)
    real = getattr(mod, name)
    monkeypatch.setattr(mod, name, lambda g: bump(*real(g)))
    failed = {c[0]: c[3] for c in _verify_group(T_STAR, QQ) if c[2] != "PASS"}
    assert list(failed) == [check] and failed[check].startswith(start), failed


def triangle_row(field=QQ):
    (row,) = [c for c in _verify_group(T_STAR, field) if c[0] == "triangle-and-norm"]
    return row[2:4]


def with_free_orbit(window):
    """A copy of a WindowedComplex's complex and u with a free orbit added
    at level 0: x in degree 0 and y = u x in degree 3, no differential.  Its
    norm map sends H+_0 = <x> onto H-_3 = <y>."""
    from bpfloer.chains import ChainMap, FiniteComplex
    from bpfloer.donaldson import Gen

    cx, f = window.complex, window.field
    out = FiniteComplex(f)
    for part in ("basis", "index", "levels", "boundary"):
        getattr(out, part).update({n: type(v)(v) for n, v in getattr(cx, part).items()})
    x, y = Gen("planted", 0, 0), Gen("planted", 3, 0)
    out.add_generator(0, x, level=0)
    out.add_generator(3, y, level=0)
    u = ChainMap(out, out, 3)
    u.columns = {n: list(cols) for n, cols in window.u.columns.items()}
    u.columns.setdefault(0, []).append({out.index[3][y]: f.one})
    u.columns.setdefault(3, []).append({})
    return out, u


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_verify_triangle_fails_on_a_corrupt_norm_map_cone_or_splitting(field, monkeypatch):
    import bpfloer.equivariant as equivariant
    import bpfloer.floer as floer

    assert triangle_row(field)[0] == "PASS"
    # a flipped nu entry: nu is no chain map.  On T* nu hits only cycles and
    # no boundary has a source of nu in it, so a sign flip keeps it one: the
    # entry changed by 1 is one out of a generator in a boundary
    real_norm = equivariant.NormData.__init__

    def flipped(self, plus, minus):
        real_norm(self, plus, minus)
        n, pos = next((n, pos) for n in sorted(self.nu.columns) if minus.complex.dim(n + 3)
                      for pos, cg in enumerate(plus.complex.basis[n]) if cg.p == 0
                      and any(pos in col for col in plus.complex.boundary_columns(n + 1)))
        col = self.nu.columns[n][pos]
        col[0] = field.add(col.get(0, field.zero), field.one)

    monkeypatch.setattr(equivariant.NormData, "__init__", flipped)
    assert triangle_row(field) == ("FAIL", "TriangleViolation: nu is not a chain map")
    monkeypatch.undo()

    # a changed Tate boundary entry: the Tate model is no cone of nu
    real_model = equivariant.FunctorModel.__init__

    def changed(self, source, u, flavor, lo, hi):
        real_model(self, source, u, flavor, lo, hi)
        if flavor == equivariant.TATE:  # the first entry out of the middle degree or above
            col = next(col for n in range((lo + hi) // 2, hi + 1)
                       for col in self.complex.boundary_columns(n) if col)
            r = next(iter(col))
            col[r] = field.add(col[r], col[r])

    monkeypatch.setattr(equivariant.FunctorModel, "__init__", changed)
    assert triangle_row(field) == ("FAIL", "TriangleViolation: cone(nu) is not the Tate model")
    monkeypatch.undo()

    # a free orbit planted in the triangle's source: nu is a chain map and
    # its cone the Tate model, but H(nu) is nonzero and the triangle does not split
    # id(window) -> (window, its planted copy); holding the window keeps its
    # id from passing to a later window
    planted = {}

    def planted_model(window, flavor, lo, hi):
        if id(window) not in planted:
            planted[id(window)] = window, with_free_orbit(window)
        return equivariant.FunctorModel(*planted[id(window)][1], flavor, lo, hi)

    monkeypatch.setattr(floer, "functor_model", planted_model)
    assert triangle_row(field) == ("FAIL", "SplittingViolation: T*: H(nu) is nonzero: "
                                           "r_(n-3) + r_(n-4) sums to 2 on the checked degrees")


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_planted_norm_rank_is_the_rank_of_h_nu(field):
    # on the models verify's triangle reads, with the free orbit planted, the
    # rank the triangle reads from dims is the rank of H(nu) out of Hplus_(n-3)
    # and Hplus_(n-4) over the checked n, each read directly, and it is 2
    from bpfloer.chains import induced_rank
    from bpfloer.donaldson import BAR, Window
    from bpfloer.equivariant import MINUS, PLUS, TATE, FunctorModel, NormData, exact_triangle_check
    from bpfloer.floer import GroupRun

    run = GroupRun(T_STAR, field)
    win, margin = run.comparison_window()
    degrees = win.interior(4, margin)
    read = Window(win.q, win.p, degrees.start - 5, degrees.stop)
    cx, u = with_free_orbit(run.model(BAR).window(read.source, field))
    plus, minus, tate = (FunctorModel(cx, u, flavor, read.n_lo, read.n_hi)
                         for flavor in (PLUS, MINUS, TATE))
    report = exact_triangle_check(plus, minus, tate, degrees)
    nu, hp, hm = NormData(plus, minus).nu, plus.homology(), minus.homology()

    def nu_rank(d):
        return induced_rank(hp, hm, [nu.column(d, i) for i in range(plus.complex.dim(d))], d, d + 3)

    direct = sum(nu_rank(n - 3) + nu_rank(n - 4) for n in report["checked"])
    assert report["checked"] == list(degrees) and report["norm_rank"] == direct == 2


def test_verify_triangle_computes_the_norm_map(monkeypatch):
    import bpfloer.floer as floer

    # an exact triangle with H(nu) nonzero does not split
    real_check = floer.exact_triangle_check

    def nonzero_norm(*args):
        return {**real_check(*args), "norm_rank": 1}

    monkeypatch.setattr(floer, "exact_triangle_check", nonzero_norm)
    assert triangle_row() == ("FAIL", "SplittingViolation: T*: H(nu) is nonzero: "
                                      "r_(n-3) + r_(n-4) sums to 1 on the checked degrees")
    monkeypatch.undo()

    # so do a degree the models cannot read and too few checked degrees
    def past_the_top(plus, minus, tate, degrees):
        return real_check(plus, minus, tate, [*degrees, tate.deg_hi])

    monkeypatch.setattr(floer, "exact_triangle_check", past_the_top)
    assert triangle_row() == ("FAIL", "BPFloerError: degree 8 is outside -7..7, the degrees "
                                      "the triangle reads on models of degrees -12..8")
    monkeypatch.undo()
    monkeypatch.setattr(floer, "MIN_CHECKED_DEGREES", 16)
    assert triangle_row() == ("FAIL", "SplittingViolation: T*: the triangle checked 15 of 15 "
                                      "degrees, 16 needed")
