"""Deterministic text / JSON / DOT emitters for the computed objects.

JSON output is schema-stable (schema_version field, sorted keys) so that
identical configurations produce byte-identical documents.
"""
from __future__ import annotations

import json

from .groups import character_table
from .mckay import mckay_graph, s_graph

SCHEMA_VERSION = 1
VERIFY_SCHEMA_VERSION = 2  # each check of a verify report carries its wall_s


def to_json(obj, schema_version=SCHEMA_VERSION) -> str:
    doc = {"schema_version": schema_version}
    doc.update(obj)
    return json.dumps(doc, sort_keys=True, indent=2, default=str)


def table_json(g):
    t = character_table(g)
    return to_json(
        {
            "group": str(g),
            "order": t.order,
            "classes": [
                {"label": c.label, "size": c.size, "rep": c.rep} for c in t.classes
            ],
            "characters": [
                {
                    "name": ir.name,
                    "dim": ir.dim,
                    "type": ir.rtype,
                    "values": [[str(x) for x in v.coeffs] for v in ir.values],
                    "root_order": g.root_order,
                }
                for ir in t.irreps
            ],
        }
    )


def table_text(g):
    t = character_table(g)
    head = ["" ] + [c.label for c in t.classes] + ["type"]
    rows = [head]
    for ir in t.irreps:
        row = [ir.name]
        for v in ir.values:
            r = v.rational_value()
            row.append(str(r) if r is not None else repr(v))
        row.append(ir.rtype)
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    lines = ["  ".join(x.rjust(w) for x, w in zip(r, widths)) for r in rows]
    sizes = " ".join("%s:%d" % (c.label, c.size) for c in t.classes)
    return "%s  (order %d)\nclass sizes: %s\n%s" % (g, t.order, sizes, "\n".join(lines))


def _edge_symbol(sg, a, b):
    na, nb = sg.label(a, b), sg.label(b, a)
    if na and nb:
        return "(%d|%d)" % (na, nb)
    if na:
        return str(na)
    if nb:
        return str(nb)
    return ""


def sgraph_json(g):
    sg = s_graph(g)
    return to_json(
        {
            "group": str(g),
            "vertices": [
                {"name": v.name, "kind": v.kind, "j": v.j, "i": v.i} for v in sg.vertices
            ],
            "edges": [
                {"a": a, "b": b, "label": _edge_symbol(sg, a, b),
                 "n_ab": sg.label(a, b), "n_ba": sg.label(b, a)}
                for a, b in sg.edges
            ],
        }
    )


def sgraph_dot(g):
    sg = s_graph(g)
    lines = ["graph sgraph_%s {" % str(g).replace("*", "star").replace("_", "")]
    for v in sg.vertices:
        lines.append(
            '  "%s" [kind="%s", j=%d, i=%d];' % (v.name, v.kind, v.j, v.i)
        )
    for a, b in sg.edges:
        sym = _edge_symbol(sg, a, b)
        lines.append('  "%s" -- "%s" [label="%s"];' % (a, b, sym))
    lines.append("}")
    return "\n".join(lines)


def sgraph_text(g):
    sg = s_graph(g)
    parts = []
    for a, b in sg.edges:
        sym = _edge_symbol(sg, a, b)
        parts.append("%s --%s-- %s" % (a, sym or "-", b))
    grades = ", ".join("%s: j=%d i=%d" % (v.name, v.j, v.i) for v in sg.vertices)
    return "%s\nedges: %s\ngradings: %s" % (g, "; ".join(parts), grades)


def mckay_dot(g):
    m = mckay_graph(g)
    t = character_table(g)
    lines = ["graph mckay_%s {" % str(g).replace("*", "star").replace("_", "")]
    for i, ir in enumerate(t.irreps):
        lines.append('  "%s" [dim=%d];' % (ir.name, ir.dim))
    n = len(t.irreps)
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(m.adjacency[i][j]):
                lines.append('  "%s" -- "%s";' % (t.irreps[i].name, t.irreps[j].name))
    lines.append("}")
    return "\n".join(lines)


def mckay_text(g):
    m = mckay_graph(g)
    t = character_table(g)
    n = len(t.irreps)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if m.adjacency[i][j]:
                mult = "" if m.adjacency[i][j] == 1 else " (x%d)" % m.adjacency[i][j]
                edges.append("%s -- %s%s" % (t.irreps[i].name, t.irreps[j].name, mult))
    return "%s: %s, marks %s\n%s" % (g, m.dynkin_type, list(m.dims), "; ".join(edges))


def _components(w, g):
    return sorted(w.differential(g).items(), key=lambda kv: repr(kv[0]))


def dci_json(model, win, field):
    w = model.window(win, field)
    gens = [
        {"vertex": g.vertex, "t": g.t, "level": g.level, "degree": g.degree}
        for g in w.generators
    ]
    diff = [
        {"from": repr(g), "to": repr(tgt), "coeff": c, "r": g.level - tgt.level}
        for g in w.generators
        for tgt, c in _components(w, g)
    ]
    return to_json(
        {
            "group": str(model.group),
            "orientation": model.orientation,
            "window": {"q": win.q, "p": win.p, "n_lo": win.n_lo, "n_hi": win.n_hi},
            "generators": gens,
            "differentials": diff,
        }
    )


def dci_text(model, win, field):
    w = model.window(win, field)
    ranks = w.bidegree_ranks()
    lines = ["%s (%s orientation), levels (%d, %d], degrees [%d, %d]" % (
        model.group, model.orientation, win.q, win.p, win.n_lo, win.n_hi)]
    lines.append("bidegree ranks (level, t) -> dim:")
    for key in sorted(ranks):
        lines.append("  (%d, %d): %d" % (key[0], key[1], ranks[key]))
    lines.append("differential components:")
    for g in w.generators:
        comps = _components(w, g)
        if comps:
            arrow = ", ".join("%r x%d" % (t, c) for t, c in comps)
            lines.append("  d(%r) = %s" % (g, arrow))
    return "\n".join(lines)


def presented_json(pm, label):
    return to_json(
        {
            "module": label,
            "flavor_tag": pm.flavor_tag,
            "families": [
                {
                    "label": f.label,
                    "base_degree": f.base_degree,
                    "step": f.step,
                    "column": f.column,
                    "floor": f.floor,
                    "top": f.top,
                }
                for f in pm.families
            ],
            # U x^k = x^(k + shift) on each tower, shift = -4/step
            "shifts": {f.label: -4 // f.step for f in pm.families if f.step},
            "corrections": {
                "%s@%d" % key: [list(x) for x in val]
                for key, val in sorted(pm.corrections.items())
            },
        }
    )


def report_json(checks, config, elapsed, schema_version=SCHEMA_VERSION):
    """checks: rows (check, target, status, detail), or with a fifth field,
    the check's wall time in seconds, written as wall_s."""
    from . import __version__

    keys = ("check", "target", "status", "detail", "wall_s")
    return to_json(
        {
            "tool": "bpfloer",
            "tool_version": __version__,
            "config": config,
            "wall_time_s": round(elapsed, 3),
            "checks": [
                dict(zip(keys, row[:4] + tuple(round(w, 4) for w in row[4:])))
                for row in checks
            ],
            "all_pass": all(c[2] == "PASS" for c in checks),
        },
        schema_version,
    )
