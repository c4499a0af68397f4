"""The index spectral sequence, the extension step, and the closed-form
equivariant Floer modules, cross-checked three ways.

Run:  python demos/03_floer_answers.py
"""
from bpfloer import (
    BAR,
    MINUS,
    I_STAR,
    GroupRun,
    Window,
    build_model,
    compare_windows,
    encoded_module,
)
from bpfloer.floer import MinusPages, ss_accounting
from bpfloer.groups import parse_group
from bpfloer.presented import ModuleWindow

print("=" * 72)
print("Negative flavor: the page differentials are weighted walk sums along")
print("the labeled graph.  For the binary icosahedral space the two walks")
print("give coefficients 1 and then 4 (a unit in every odd characteristic).")
print("=" * 72)
pages = MinusPages(build_model(I_STAR, BAR))
print("  page 4 value on the point tower:", dict(pages.d_value(1, 0, ("U", "theta"))))
print("  page 8 value on the point tower:", dict(pages.d_value(2, 0, ("U", "theta"))))
print("  degeneration page:", pages.degeneration_page)

print()
print("Assembled answers (free towers on the stable page):")
for name in ("I*", "O*", "T*", "D*_9"):
    asm = GroupRun(parse_group(name)).assembled(BAR, MINUS)
    gens = ", ".join("%s @ %d" % (f.label, f.base_degree) for f in asm.families)
    print("  %-5s: %s" % (name, gens))

print()
print("=" * 72)
print("Three independent routes to the same window numbers:")
print("  (a) the encoded closed-form module,")
print("  (b) the module assembled from the page engine,")
print("  (c) the chain route: bars read off one U-adic reduction of the window.")
print("=" * 72)
g = parse_group("D*_6")
# one GroupRun holds the group's page run, the window it sizes and each
# orientation's reduction: the window and level margin come from the last
# page that fires, and the safe interior is degrees -7..7 for every group
run = GroupRun(g)
win, margin = run.comparison_window()
print("  comparison window %r, level margin %d, safe interior %r"
      % (win, margin, win.interior(4, margin)))
enc = encoded_module(g, BAR, "-")
asm = run.assembled(BAR, MINUS)
hw = run.homology_window(BAR, MINUS, win)
rep_ab = compare_windows(ModuleWindow(asm, win), ModuleWindow(enc, win), win, 4, margin, 6)
rep_cb = compare_windows(hw, ModuleWindow(enc, win), win, 4, margin, 3)
print("  assembled vs encoded:", "PASS" if rep_ab.ok else rep_ab.mismatches[:3])
print("  direct    vs encoded:", "PASS" if rep_cb.ok else rep_cb.mismatches[:3])
print("  reduction of the (bar) source window:", run.reduction(BAR, win.source).describe())

print()
print("Truncated-page accounting on an arbitrary bounded window:")
out = ss_accounting(g, BAR, MINUS, Window(-5, 7, -8, 8))
nonzero = {n: v for n, v in sorted(out.items()) if v != (0, 0)}
print("  degree -> (sum of stable page entries, direct homology dim):")
print(" ", nonzero)
n = max(nonzero, key=lambda n: nonzero[n][1])
print("  degree %d read level by level, level s -> dim E^inf_{s,%d-s}:" % (n, n))
print("   ", out.rows[n], "total", sum(out.rows[n].values()))
