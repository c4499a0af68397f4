"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --spawned T
        [--setup-only] [--trace-file PATH]

`--spawned` is the time.monotonic() reading taken by the parent just before
it started this process; set-up time runs from there until bpfloer is
imported and the inputs are generated.  The pass then runs the workload,
judges every answer and prints one JSON object on stdout.  With
`--trace-file` the pass runs instrumented (see tracer.py), writes its spans
to that file and adds the per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

import bpfloer
import bpfloer.cli as cli
from bpfloer.donaldson import BAR, STD, Window
from bpfloer.equivariant import MINUS, PLUS, TATE
from bpfloer.fields import QQ
from bpfloer.groups import I_STAR, parse_group

FLAVORS = {"-": MINUS, "+": PLUS, "inf": TATE}

# verify: the checks cli._verify_group runs for every group, plus one for T*, O*, I*
VERIFY_CHECKS = (
    "character-table-orthogonality", "sgraph-structure", "bar-construction-oracle",
    "spectral-sequence-accounting", "assembly-vs-closed-form", "triangle-and-norm",
    "cs-golden-values", "orientation-duality",
)
VERIFY_EXTRA = {"T*", "O*", "I*"}
# the 16 default groups, fixed here so that the workload stays the same if
# cli.DEFAULT_GROUPS grows
VERIFY_GROUPS = ["T*", "O*", "I*"] + ["C_%d" % k for k in range(2, 9)] + [
    "D*_%d" % k for k in range(2, 8)]

# chain-route: the 25 acceptance groups, width-48 windows, U powers up to 6
CHAIN_GROUPS = ["C_%d" % k for k in range(2, 13)] + ["D*_%d" % k for k in range(2, 13)] + [
    "T*", "O*", "I*"]
CHAIN_HALF_WIDTH = 24
CHAIN_OFFSETS = 8
CHAIN_U_POWERS = 6

# catalog: groups past the verify set, each once per process
CATALOG_GROUPS = ["C_%d" % k for k in range(9, 17)] + ["D*_%d" % k for k in range(8, 13)]
CATALOG_PAIRS = 3


def make_inputs(workload, seed, nproc):
    """Everything the pass feeds the package, from the seed alone."""
    rng = random.Random(seed)
    if workload in ("verify-q2", "verify-fp5"):
        order = rng.sample(VERIFY_GROUPS, len(VERIFY_GROUPS))
        argv = ["verify", "--groups", ",".join(order)]
        if workload == "verify-q2":
            argv += ["--jobs", str(min(2, nproc))]
        else:
            argv += ["--coeff", "fp:5", "--jobs", "1"]
        return {"groups": order, "argv": argv + ["--format", "json"]}
    if workload == "chain-route":
        order = rng.sample(CHAIN_GROUPS, len(CHAIN_GROUPS))
        return {"plan": [[name, i % CHAIN_OFFSETS] for i, name in enumerate(order)]}
    if workload == "catalog":
        order = rng.sample(CATALOG_GROUPS, len(CATALOG_GROUPS))
        # pairs of flat connections as positions in [0, 1): the names are
        # only known once the package has computed the representations
        return {"plan": [[name, [[rng.random(), rng.random()] for _ in range(CATALOG_PAIRS)]]
                         for name in order]}
    raise SystemExit("unknown workload %r" % workload)


def item(ident, ok, why="", known=False):
    return {"id": ident, "ok": bool(ok), "why": why, "known": bool(known and not ok)}


def guarded(ident, check):
    """Run check() -> (ok, why); an exception is a failed item."""
    try:
        ok, why = check()
    except Exception as e:  # noqa: BLE001 - a raising call is a failed answer
        return item(ident, False, "%s: %s" % (type(e).__name__, e))
    return item(ident, ok, why)


class Api:
    """The package entry points a workload calls, traced when asked."""

    def __init__(self, tracer=None):
        from bpfloer import cs, floer, groups, mckay, presented, theorems
        from bpfloer.donaldson import build_model

        entries = {
            "cli_main": cli.main,
            "build_model": build_model,
            "MinusPages": floer.MinusPages,
            "direct_homology_window": floer.direct_homology_window,
            "encoded_module": theorems.encoded_module,
            "ModuleWindow": presented.ModuleWindow,
            "compare_windows": presented.compare_windows,
            "character_table": groups.character_table,
            "quaternionic_reps": groups.quaternionic_reps,
            "verify_orthogonality": groups.verify_orthogonality,
            "mckay_graph": mckay.mckay_graph,
            "s_graph": mckay.s_graph,
            "s_graph_matches_expected": mckay.s_graph_matches_expected,
            "cs_table": cs.cs_table,
            "chern_simons": cs.chern_simons,
            "cs_difference": cs.cs_difference,
            "q_vertex": cs.q_vertex,
        }
        for key, fn in entries.items():
            # classes are traced through their constructors (tracer.instrument)
            if tracer is not None and not isinstance(fn, type):
                fn = tracer.wrap(fn)
            setattr(self, key, fn)


# ---------------------------------------------------------------------------
# verify-q2, verify-fp5


def judge_verify(report, code, groups):
    """One item per expected (check, group); a missing check fails, and so
    does a check the pipeline is not expected to run."""
    if report is None:
        return [item("%s/%s" % (g, c), False, "no report (exit code %r)" % code)
                for g in groups for c in expected_checks(g)]
    got = {(c["target"], c["check"]): c for c in report["checks"]}
    items = []
    for g in groups:
        for check in expected_checks(g):
            c = got.pop((g, check), None)
            if c is None:
                items.append(item("%s/%s" % (g, check), False, "missing"))
            else:
                items.append(item("%s/%s" % (g, check), c["status"] == "PASS", c["detail"]))
    for (g, check), c in sorted(got.items()):
        items.append(item("%s/%s" % (g, check), False, "unexpected check"))
    return items


def expected_checks(group):
    return VERIFY_CHECKS + (("model-multicomplex-figures",) if group in VERIFY_EXTRA else ())


def run_verify(api, inputs, tracer):
    out = io.StringIO()
    report, code = None, None
    try:
        with contextlib.redirect_stdout(out):
            code = api.cli_main(inputs["argv"])
        report = json.loads(out.getvalue())
    except Exception as e:  # noqa: BLE001 - every check then counts as failed
        code = "%s: %s" % (type(e).__name__, e)
    items = judge_verify(report, code, inputs["groups"])
    anomalies = []
    if report is not None:
        all_ok = all(c["status"] == "PASS" for c in report["checks"])
        if report["all_pass"] != all_ok or (code == 0) != all_ok:
            anomalies.append("all_pass %r and exit code %r disagree with the checks"
                             % (report["all_pass"], code))
    if tracer is not None:
        tracer.add("cli.checks", len(report["checks"]) if report else 0)
        tracer.add("cli.checks_failed", sum(not i["ok"] for i in items))
    return items, anomalies, report


def selftest_verify(report, inputs):
    """The gate must count one flipped FAIL and one dropped check."""
    if report is None or all(c["status"] != "PASS" for c in report["checks"]):
        return {"verify-gate": False}
    base = sum(not i["ok"] for i in judge_verify(report, 0, inputs["groups"]))
    flipped = json.loads(json.dumps(report))
    next(c for c in flipped["checks"] if c["status"] == "PASS")["status"] = "FAIL"
    dropped = json.loads(json.dumps(report))
    del dropped["checks"][-1]
    return {
        "verify-gate-fail": sum(not i["ok"] for i in judge_verify(flipped, 0, inputs["groups"]))
        == base + 1,
        "verify-gate-missing": sum(not i["ok"] for i in judge_verify(dropped, 0, inputs["groups"]))
        == base + 1,
    }


# ---------------------------------------------------------------------------
# chain-route


def chain_window(offset):
    h = CHAIN_HALF_WIDTH
    return Window(-h + offset, h + offset, -h + offset, h + offset)


def known_chain_defect(orientation, flavor_key, offset, rep):
    """The recorded (std, +) disagreement, cause not diagnosed: at offsets
    2, 3 (mod 4) the direct route's dims sit below the encoded table's
    (U ranks then differ too).  Any other failure is unexpected."""
    return (orientation == STD and flavor_key == "+" and offset % 4 in (2, 3)
            and bool(rep.checked_degrees)
            and all(m[2] < m[3] for m in rep.mismatches if m[0] == "dim"))


def chain_item(api, g, orientation, flavor_key, offset, margin, tracer=None):
    ident = "%s/%s/%s/c%d" % (g, orientation, flavor_key, offset)
    win = chain_window(offset)
    try:
        hw = api.direct_homology_window(g, orientation, FLAVORS[flavor_key], win, QQ)
        mw = api.ModuleWindow(api.encoded_module(g, orientation, flavor_key), win, QQ)
        rep = api.compare_windows(hw, mw, win, 4, margin, CHAIN_U_POWERS)
    except Exception as e:  # noqa: BLE001 - a raising route is a failed item
        return item(ident, False, "%s: %s" % (type(e).__name__, e))
    if tracer is not None:
        count_uranks(tracer, hw, mw, rep)
    if not rep.checked_degrees:
        return item(ident, False, "empty safe interior")
    return item(ident, rep.ok, "%d degrees, %d mismatches %r"
                % (len(rep.checked_degrees), len(rep.mismatches), rep.mismatches[:2]),
                known=known_chain_defect(orientation, flavor_key, offset, rep))


def count_uranks(tracer, left, right, rep):
    """U-rank pairs of the safe interior where both sides gave a rank."""
    degrees = rep.checked_degrees
    if not degrees:
        return
    lo, hi = degrees[0], degrees[-1]
    for k in range(1, CHAIN_U_POWERS + 1):
        for n in degrees:
            if lo <= n - 4 * k <= hi:
                tracer.add("presented.urank_pairs", 1)
                if left.u_power_rank(k, n) is not None and right.u_power_rank(k, n) is not None:
                    tracer.add("presented.urank_made", 1)


def chain_margin(api, g):
    pages = api.MinusPages(api.build_model(g, BAR), QQ)
    return max(4, 4 * pages.r_last + 4)


def run_chain(api, inputs, tracer):
    items = []
    for name, offset in inputs["plan"]:
        g = parse_group(name)
        margin = chain_margin(api, g)
        for orientation in (BAR, STD):
            for flavor_key in ("-", "+", "inf"):
                items.append(chain_item(api, g, orientation, flavor_key, offset, margin, tracer))
    return items, [], None


def selftest_chain(report, inputs):
    """I* with one zeroed edge label must be a failed, unknown item."""
    import bpfloer.floer as floer
    from bpfloer.mckay import SGraph, s_graph

    api = Api()
    margin = chain_margin(api, I_STAR)
    real = floer.build_model

    def broken_model(group, orientation):
        model = real(group, orientation)
        sg = s_graph(group)
        model.sgraph = SGraph(group, sg.vertices, sg.edges, {**sg.labels, ("beta", "alpha"): 0})
        return model

    floer.build_model = broken_model
    try:
        got = chain_item(api, I_STAR, BAR, "-", 0, margin)
    finally:
        floer.build_model = real
    return {"chain-gate-mutation": not got["ok"] and not got["known"]}


# ---------------------------------------------------------------------------
# catalog


def expected_dynkin(g):
    return "A~%d" % (g.param - 1) if g.family == "C" else "D~%d" % (g.param + 2)


def run_catalog(api, inputs, tracer):
    items = []
    for name, pairs in inputs["plan"]:
        g = parse_group(name)
        golden = Fraction(g.order - 1, g.order)

        def orthogonality():
            api.character_table(g)
            return api.verify_orthogonality(g) is True, ""

        def mckay():
            tag = api.mckay_graph(g).dynkin_type
            return tag == expected_dynkin(g), tag

        def sgraph():
            api.s_graph(g)
            return api.s_graph_matches_expected(g)

        def cs_table():
            rows = {n: v.value for n, v, _ in api.cs_table(g)}
            return (len(rows) == len(api.quaternionic_reps(g))
                    and rows[api.q_vertex(g)] == golden), "%d flat connections" % len(rows)

        def cs_golden():
            v = api.chern_simons(g, api.q_vertex(g)).value
            return v == golden, str(v)

        items.append(guarded(name + "/orthogonality", orthogonality))
        items.append(guarded(name + "/mckay", mckay))
        items.append(guarded(name + "/sgraph", sgraph))
        items.append(guarded(name + "/cs-table", cs_table))
        items.append(guarded(name + "/cs-golden", cs_golden))
        for i, (u, v) in enumerate(pairs):
            def path(u=u, v=v):
                names = [q.name for q in api.quaternionic_reps(g)]
                a, b = names[int(u * len(names))], names[int(v * len(names))]
                walk = (api.chern_simons(g, a).value - api.chern_simons(g, b).value) % 1
                return walk == api.cs_difference(g, a, b) % 1, "%s-%s" % (a, b)
            items.append(guarded("%s/cs-path%d" % (name, i), path))
    return items, [], None


WORKLOADS = {
    "verify-q2": (run_verify, selftest_verify),
    "verify-fp5": (run_verify, selftest_verify),
    "chain-route": (run_chain, selftest_chain),
    "catalog": (run_catalog, lambda report, inputs: {}),
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)
    inputs = make_inputs(args.workload, args.seed, len(os.sched_getaffinity(0)))
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace_file:
        from tracer import Tracer, instrument

        tracer = Tracer("%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
        instrument(tracer)
    run, selftest = WORKLOADS[args.workload]
    api = Api(tracer)
    cpu0, t0 = time.process_time(), time.monotonic()
    items, anomalies, report = run(api, inputs, tracer)
    t1 = time.monotonic()
    wall_s = t1 - t0
    cpu_s = time.process_time() - cpu0
    # this process plus its largest child, so a process pool's workers count
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    out = {
        "setup_s": setup_s, "wall_s": wall_s, "interval": [t0, t1], "cpu_s": cpu_s,
        "peak_rss_kb": rss_kb,
        "inputs": inputs, "items": items, "anomalies": anomalies,
        "bpfloer_version": bpfloer.__version__,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["process.cpu_s"] = cpu_s
        layers["process.cpu_util"] = cpu_s / wall_s
        pairs = layers.pop("presented.urank_pairs", 0)
        layers["presented.urank_coverage"] = layers.get("presented.urank_made", 0) / pairs if pairs else 0
        tracer.dump(args.trace_file)
        out["layers"] = layers
    else:
        out["selftest"] = selftest(report, inputs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
