"""Command-line surface and the end-to-end verification pipeline.

Subcommands: groups, repr, mckay, sgraph, dci, floer, floer-raw, cs, verify.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.  A key=value
config file (--config or the BPFLOER_CONFIG environment variable) supplies
defaults that explicit flags override.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import serialize
from .cs import chern_simons, cs_difference, cs_table, q_vertex
from .donaldson import BAR, STD, Window, build_model, toi_multicomplex_matches
from .equivariant import MINUS, PLUS, TATE, bar_oracle, exact_triangle_check, functor_model
from .errors import BPFloerError, WrongFlavor
from .fields import parse_field
from .floer import (
    GroupRun,
    closed_form_reports,
    duality_transpose_check,
    norm_vanishing_and_splitting,
    pair_reports,
    ss_accounting,
)
from .groups import (
    GroupId,
    T_STAR,
    O_STAR,
    I_STAR,
    binary_dihedral,
    character_table,
    cyclic,
    parse_group,
    q_tensor_matrix,
    verify_orthogonality,
)
from .mckay import s_graph, s_graph_matches_expected
from .presented import MIN_CHECKED_DEGREES
from .theorems import encoded_module

DEFAULT_GROUPS = (
    [T_STAR, O_STAR, I_STAR]
    + [cyclic(k) for k in range(2, 9)]
    + [binary_dihedral(k) for k in range(2, 8)]
)

FLAVORS = {"+": PLUS, "-": MINUS, "inf": TATE}

# the bar oracle and the transposed duality are identities, true on any window
IDENTITY_WINDOW = Window(-13, 11, -12, 12)


def _parse_pair(text, sep=":"):
    try:
        a, b = text.split(sep)
        return int(a), int(b)
    except ValueError:
        raise BPFloerError("expected two integers separated by %r, got %r" % (sep, text)) from None


def _parse_jobs(text):
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise BPFloerError("jobs must be a positive integer, got %r" % (text,))
    return jobs


def load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise BPFloerError("bad config line: %r" % line)
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def make_parser():
    p = argparse.ArgumentParser(prog="bpfloer", description=__doc__)
    p.add_argument("--config", default=os.environ.get("BPFLOER_CONFIG"))
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("groups", help="list the supported groups")

    pr = sub.add_parser("repr", help="character tables")
    pr.add_argument("action", choices=["table"])
    pr.add_argument("group")
    pr.add_argument("--format", choices=["text", "json"], default=None)

    pm = sub.add_parser("mckay", help="McKay graphs")
    pm.add_argument("action", choices=["graph"])
    pm.add_argument("group")
    pm.add_argument("--dot", action="store_true")

    ps = sub.add_parser("sgraph", help="labeled graphs on flat connections")
    ps.add_argument("group")
    ps.add_argument("--dot", action="store_true")
    ps.add_argument("--json", action="store_true")

    pd = sub.add_parser("dci", help="model multicomplex windows")
    pd.add_argument("group")
    pd.add_argument("--orientation", choices=[BAR, STD], default=None)
    pd.add_argument("--window", default=None, help="q:p filtration levels")
    pd.add_argument("--degrees", default=None, help="lo:hi total degrees")
    pd.add_argument("--format", choices=["text", "json"], default=None)
    pd.add_argument("--coeff", default=None)

    pf = sub.add_parser("floer", help="assembled equivariant homology modules")
    pf.add_argument("group")
    pf.add_argument("--orientation", choices=[BAR, STD], default=None)
    pf.add_argument("--flavor", choices=list(FLAVORS), default=None)
    pf.add_argument("--coeff", default=None)
    pf.add_argument("--window", default=None)
    pf.add_argument("--degrees", default=None)
    pf.add_argument("--format", choices=["text", "json"], default=None)

    pw = sub.add_parser("floer-raw", help="window homology and accounting reports")
    pw.add_argument("group")
    pw.add_argument("--orientation", choices=[BAR, STD], default=None)
    pw.add_argument("--flavor", choices=list(FLAVORS), default=None)
    pw.add_argument("--window", default=None)
    pw.add_argument("--degrees", default=None)
    pw.add_argument("--coeff", default=None)
    pw.add_argument("--format", choices=["text", "json"], default=None)

    pc = sub.add_parser("cs", help="Chern-Simons invariants of flat connections")
    pc.add_argument("group")
    pc.add_argument("--orientation", choices=[STD, BAR], default=None)
    pc.add_argument("--format", choices=["text", "json"], default=None)

    pv = sub.add_parser("verify", help="run the end-to-end verification pipeline")
    pv.add_argument("--groups", default=None, help="comma list, e.g. T*,C_4,D*_5")
    pv.add_argument("--coeff", default=None)
    pv.add_argument("--jobs", type=int, default=None)
    pv.add_argument("--format", choices=["text", "json"], default=None)
    return p


def _merged(args, cfg, key, fallback):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return fallback


def _window_from(args, cfg):
    q, p = _parse_pair(_merged(args, cfg, "window", "-24:24"))
    lo, hi = _parse_pair(_merged(args, cfg, "degrees", "-24:24"))
    return Window(q, p, lo, hi)


def cmd_groups(args, cfg):
    rows = [(str(g), g.order, str(g.abelianization())) for g in DEFAULT_GROUPS]
    print("group  order  abelianization (invariant factors)")
    for name, order, ab in rows:
        print("%-6s %5d  %s" % (name, order, ab))
    print("(cyclic and binary dihedral families accept any parameter)")
    return 0


def cmd_repr(args, cfg):
    g = parse_group(args.group)
    fmt = _merged(args, cfg, "format", "text")
    print(serialize.table_json(g) if fmt == "json" else serialize.table_text(g))
    return 0


def cmd_mckay(args, cfg):
    g = parse_group(args.group)
    print(serialize.mckay_dot(g) if args.dot else serialize.mckay_text(g))
    return 0


def cmd_sgraph(args, cfg):
    g = parse_group(args.group)
    if args.dot:
        print(serialize.sgraph_dot(g))
    elif args.json:
        print(serialize.sgraph_json(g))
    else:
        print(serialize.sgraph_text(g))
    return 0


def cmd_dci(args, cfg):
    g = parse_group(args.group)
    orientation = _merged(args, cfg, "orientation", BAR)
    field = parse_field(_merged(args, cfg, "coeff", "q"))
    win = _window_from(args, cfg)
    model = build_model(g, orientation)
    fmt = _merged(args, cfg, "format", "text")
    out = serialize.dci_json(model, win, field) if fmt == "json" else serialize.dci_text(model, win, field)
    print(out)
    return 0


def cmd_floer(args, cfg):
    t0 = time.perf_counter()
    g = parse_group(args.group)
    orientation = _merged(args, cfg, "orientation", BAR)
    flavor = FLAVORS[_merged(args, cfg, "flavor", "-")]
    field = parse_field(_merged(args, cfg, "coeff", "q"))
    run = GroupRun(g, field)
    win, margin = run.comparison_window()
    if any(_merged(args, cfg, key, None) is not None for key in ("window", "degrees")):
        win = _window_from(args, cfg)
    try:
        shown, what = run.assembled(orientation, flavor), "assembled"
    except WrongFlavor:  # no page derivation: show the closed form
        shown, what = encoded_module(g, orientation, flavor), "closed-form"
    reports = [({"pages": "assembly", "chain": "chain-route"}[route], rep,
                "%d safe degrees, %d U-rank comparisons made"
                % (len(rep.checked_degrees), rep.urank_made))
               for route, rep in pair_reports(run, orientation, flavor, win, margin)]
    fmt = _merged(args, cfg, "format", "text")
    if fmt == "json":
        print(serialize.presented_json(shown, "%s %s %s %s" % (what, g, orientation, flavor)))
        print(serialize.report_json(
            [("%s-vs-closed-form" % route, str(g), "PASS" if rep.ok else "FAIL", coverage)
             for route, rep, coverage in reports],
            {"group": str(g), "orientation": orientation, "flavor": flavor,
             "coeff": field.name,
             "window": {"q": win.q, "p": win.p, "n_lo": win.n_lo, "n_hi": win.n_hi}},
            time.perf_counter() - t0))
    else:
        print("%s module for %s (%s orientation, flavor %s over %s):"
              % (what, g, orientation, flavor, field.name))
        for f in shown.families:
            kind = "Laurent tower" if f.floor is None else (
                "class" if f.top == 0 else "tower")
            print("  %-28s degree %3d  column %d  (%s, step %d)"
                  % (f.label, f.base_degree, f.column, kind, f.step))
        if (orientation, flavor) == (BAR, MINUS):
            pages = run.pages
            print("stable page table (columns 0 and 4):")
            for col in (0, 4):
                surv = pages.surviving_h(col)
                print("  column %d: t=3 survivors %d" % (col, surv))
                for r in range(1, pages.r_last + 3):
                    ker = pages.kernel_space(col, r)
                    labels = [pages.gen_label(col, r, v) for v in ker]
                    print("    t=%-4d dim %d  %s" % (-4 * (r - 1), len(ker), labels))
            print("degeneration page: %d" % pages.degeneration_page)
        elif (orientation, flavor) == (STD, PLUS):
            print("assembled through the duality with the other orientation")
        for route, rep, coverage in reports:
            print("%s vs the closed form: %s (%s)"
                  % (route, "PASS" if rep.ok else "FAIL", coverage))
            if len(rep.checked_degrees) < MIN_CHECKED_DEGREES:
                print("  under %d safe degrees: widen --window and --degrees"
                      % MIN_CHECKED_DEGREES)
            for m in rep.mismatches[:10]:
                print("  mismatch:", m)
    return 0 if all(rep.ok for _, rep, _ in reports) else 1


def cmd_floer_raw(args, cfg):
    g = parse_group(args.group)
    orientation = _merged(args, cfg, "orientation", BAR)
    flavor_key = _merged(args, cfg, "flavor", "-")
    flavor = FLAVORS[flavor_key]
    field = parse_field(_merged(args, cfg, "coeff", "q"))
    win = _window_from(args, cfg)
    run = GroupRun(g, field)
    # the bars of the source window's reduction, cut to the degrees
    hw = run.homology_window(orientation, flavor, win)
    dims = {n: hw.dim(n) for n in range(win.n_lo, win.n_hi + 1) if hw.dim(n)}
    # rank U only where U stays in the window
    uranks = {n: hw.u_power_rank(1, n) for n in dims if n - 4 >= win.n_lo}
    # the source window's degree span cut to the requested degrees, its interior(4, 4)
    lo, hi = max(win.n_lo, win.q + 1), min(win.n_hi, win.p + 3)
    degrees = Window(win.q, win.p, lo, hi).interior(4, 4) if lo <= hi else ()
    source = run.model(orientation).window(win.source, field)
    triangle = exact_triangle_check(*(functor_model(source, fl, win.n_lo, win.n_hi)
                                      for fl in (PLUS, MINUS, TATE)), degrees)
    if not triangle["checked"]:
        raise BPFloerError("the cone triangle checked no interior degree: widen --window "
                           "and --degrees")
    fmt = _merged(args, cfg, "format", "text")
    if fmt == "json":
        print(serialize.to_json({
            "group": str(g), "orientation": orientation, "flavor": flavor_key,
            "coeff": field.name,
            "window": {"q": win.q, "p": win.p, "n_lo": win.n_lo, "n_hi": win.n_hi},
            "homology_dims": {str(k): v for k, v in sorted(dims.items())},
            "u_ranks": {str(k): v for k, v in sorted(uranks.items())},
            "triangle_report": {"checked_degrees": triangle["checked"]},
        }))
    else:
        print("window homology of %s (%s, flavor %s, %s):" % (g, orientation, flavor_key, field.name))
        for n in sorted(dims):
            extra = "  rank U = %d" % uranks[n] if n in uranks else ""
            print("  H_%-4d dim %d%s" % (n, dims[n], extra))
        print("cone triangle verified on interior degrees %s" % triangle["checked"])
    return 0


def cmd_cs(args, cfg):
    g = parse_group(args.group)
    orientation = _merged(args, cfg, "orientation", STD)
    rows = cs_table(g, orientation)
    fmt = _merged(args, cfg, "format", "text")
    if fmt == "json":
        print(serialize.to_json({
            "group": str(g), "orientation": orientation,
            "flat_connections": [
                {"name": n, "cs": str(v), "c2": str(c)} for n, v, c in rows
            ],
        }))
    else:
        print("flat connections over %s (%s orientation):" % (g, orientation))
        for n, v, c in rows:
            print("  %-10s cs = %-8s c2 = %s" % (n, v, c))
    return 0


# ---------------------------------------------------------------------------
# verify pipeline


def _verify_group(g: GroupId, field):
    """All per-group checks; returns a list of (check, target, status, detail,
    wall_s).  The assembly and triangle checks read one GroupRun, dropped
    when the group is done."""
    checks = []
    name = str(g)
    shared = GroupRun(g, field)

    def run(tag, fn):
        t0 = time.perf_counter()
        try:
            row = (tag, name, "PASS", fn())
        except Exception as e:  # noqa: BLE001 - report, do not crash the pipeline
            row = (tag, name, "FAIL", "%s: %s" % (type(e).__name__, e))
        checks.append(row + (time.perf_counter() - t0,))

    def orthogonality_check():
        verify_orthogonality(g)
        n = len(character_table(g).irreps)
        return "rows: %d pairs of a square %dx%d table" % (n * (n + 1) // 2, n, n)
    run("character-table-orthogonality", orthogonality_check)

    def sgraph_check():
        ok, msg = s_graph_matches_expected(g)
        if not ok:
            raise BPFloerError(msg)
        # s_graph reads the McKay matrix for D*, T*, O*, I* only; computing it
        # here makes the certificate hold for C_n too: each row is accepted
        # only when it re-sums to Q (x) R_i on every class
        n = len(q_tensor_matrix(g))
        t = character_table(g)
        # s_graph raises LabelMismatch on any label whose two solves differ
        return ("McKay %dx%d re-summed on %d classes; vertices+labels+gradings; %d labels: "
                "deletion oracle = algebraic solve" % (n, n, len(t.classes), len(s_graph(g).labels)))
    run("sgraph-structure", sgraph_check)

    if name in ("T*", "O*", "I*"):
        def toi():
            ok, msg = toi_multicomplex_matches(g)
            if not ok:
                raise BPFloerError(msg)
            return "ranks+arrows"
        run("model-multicomplex-figures", toi)

    def oracle():
        win = IDENTITY_WINDOW
        w = build_model(g, BAR).window(win.source, field)
        gens = [bar_oracle(w, flavor, win.n_lo, win.n_hi)[0].complex.total_dim()
                for flavor in (PLUS, MINUS)]
        return "both flavors; chain isomorphisms on %d and %d generators" % tuple(gens)
    run("bar-construction-oracle", oracle)

    def accounting():
        w = Window(-9, 7, -10, 10)
        parts = []
        for orientation, flavor, key in ((BAR, MINUS, "bar/-"), (STD, PLUS, "std/+")):
            dims = ss_accounting(g, orientation, flavor, w, field)
            nonzero = sum(1 for _, h in dims.values() if h)
            if not nonzero:
                raise BPFloerError("%s compared no degree with nonzero homology" % key)
            levels = {s for row in dims.rows.values() for s in row}
            entries = sum(1 for row in dims.rows.values() for d in row.values() if d)
            parts.append("%s: %d degrees, %d nonzero, %d levels, %d E^inf entries"
                         % (key, len(dims), nonzero, len(levels), entries))
        return "pages vs direct homology; " + "; ".join(parts)
    run("spectral-sequence-accounting", accounting)

    def assembly():
        reports = closed_form_reports(shared)
        bad = [(route, o, f, rep.mismatches[:3] or "empty interior")
               for route, o, f, rep in reports if not rep.ok]
        if bad:
            raise BPFloerError(repr(bad[:3]))
        source = shared.comparison_window()[0].source

        def window_counts(route, side):
            """(elements, plain bars, linked elements) summed over the module
            windows on one side of the route's reports."""
            return tuple(sum(c) for c in zip(*(rep.views[side].counts()
                                               for r, *_, rep in reports if r == route)))
        return ("6 pairs chain-level + bar/- page-assembled vs encoded; %d degrees; "
                "U-ranks %d made; %s; encoded windows: %d elements, %d plain bars, "
                "%d linked; page window: %d elements, %d plain bars, %d linked" % (
                    sum(len(rep.checked_degrees) for *_, rep in reports),
                    sum(rep.urank_made for *_, rep in reports),
                    "; ".join("%s: %s" % (o, shared.reduction(o, source).describe())
                              for o in (BAR, STD)),
                    *window_counts("chain", 1), *window_counts("pages", 0)))
    run("assembly-vs-closed-form", assembly)

    def triangle():
        rep = norm_vanishing_and_splitting(shared)
        return ("even degrees: bar/+ closed form, bar/- assembled; models on degrees %d..%d: "
                "nu a chain map on %d '+' generators, cone(nu) = Tate on %d generators; "
                "cone triangle on %d degrees; H(nu) summed rank %d" % (
                    *rep["span"], rep["nu_generators"], rep["cone_generators"],
                    len(rep["checked"]), rep["norm_rank"]))
    run("triangle-and-norm", triangle)

    run("cs-golden-values", lambda: _check_cs(g))

    def duality():
        wstd = build_model(g, STD).window(IDENTITY_WINDOW, field)
        mism = duality_transpose_check(wstd)
        if mism:
            raise BPFloerError(repr(mism[:3]))
        return "transposed window on %d generators" % len(wstd.generators)
    run("orientation-duality", duality)
    return checks


def _check_cs(g):
    """The Q-vertex golden value, and on every labeled-graph edge (a, b) the
    vertex values against the edge's own solve: cs(b) - cs(a) = cs_difference.
    One solve per vertex and one per edge; the detail names their count."""
    sg = s_graph(g)
    cs = {v.name: chern_simons(g, v.name).value for v in sg.vertices}
    got = cs[q_vertex(g)]
    want = Fraction(g.order - 1, g.order) if g.order > 1 else Fraction(0)
    if got != want:
        raise BPFloerError("cs(Q-vertex) = %s, wanted %s" % (got, want))
    for a, b in sg.edges:
        step = cs_difference(g, b, a)
        if (cs[b] - cs[a] - step) % 1:
            raise BPFloerError("edge %s-%s: vertex values differ by %s, the edge solve gives %s"
                               " (mod 1)" % (a, b, (cs[b] - cs[a]) % 1, step % 1))
    return "Q-vertex golden; %d tree edges: vertex values vs edge solves; %d solves" % (
        len(sg.edges), len(sg.vertices) + len(sg.edges))


def cmd_verify(args, cfg):
    field = parse_field(_merged(args, cfg, "coeff", "q"))
    names = _merged(args, cfg, "groups", None)
    if names:
        groups = [parse_group(x) for x in names.split(",")]
    else:
        groups = list(DEFAULT_GROUPS)
    # --jobs is parsed, checked and echoed in the report, but groups run in
    # order on one thread whatever its value
    jobs = _parse_jobs(_merged(args, cfg, "jobs", 1))
    t0 = time.perf_counter()
    all_checks = []
    for g in groups:
        all_checks.extend(_verify_group(g, field))
    all_checks.sort(key=lambda c: (c[1], c[0]))
    elapsed = time.perf_counter() - t0
    fmt = _merged(args, cfg, "format", "text")
    ok = all(c[2] == "PASS" for c in all_checks)
    if fmt == "json":
        print(serialize.report_json(all_checks, {
            "groups": ",".join(str(g) for g in groups),
            "coeff": field.name, "jobs": jobs}, elapsed, serialize.VERIFY_SCHEMA_VERSION))
    else:
        for tag, target, status, detail, _ in all_checks:
            print("%-34s %-6s %s %s" % (tag, target, status, detail))
        print("verify: %s in %.1fs (%d checks)" % ("PASS" if ok else "FAIL", elapsed, len(all_checks)))
    return 0 if ok else 1


COMMANDS = {
    "groups": cmd_groups,
    "repr": cmd_repr,
    "mckay": cmd_mckay,
    "sgraph": cmd_sgraph,
    "dci": cmd_dci,
    "floer": cmd_floer,
    "floer-raw": cmd_floer_raw,
    "cs": cmd_cs,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    cfg = {}
    if args.config:
        try:
            cfg = load_config(args.config)
        except (OSError, BPFloerError) as e:
            print("config error: %s" % e, file=sys.stderr)
            return 2
    # malformed values fail here as usage errors, before any computation
    checks = {"coeff": parse_field, "window": _parse_pair, "degrees": _parse_pair,
              "jobs": _parse_jobs}
    try:
        for key, parse in checks.items():
            val = _merged(args, cfg, key, None)
            if val is not None:
                parse(val)
        key = "window"
        if any(_merged(args, cfg, k, None) is not None for k in ("window", "degrees")):
            _window_from(args, cfg)  # an empty or inverted window
    except BPFloerError as e:
        print("usage error: %s: %s" % (key, e), file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](args, cfg)
    except BPFloerError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
