"""In-memory spans around bpfloer's layer boundaries, and their per-layer view.

A span is (id, name, start, end, parent, thread).  Names are
"<module>.<callable>", e.g. "chains.HomologyData" or "donaldson.window".
`instrument` wraps, in the running process only, every public function that
one bpfloer module imports from another (in the importing module's
namespace), the constructors of the classes whose construction is a layer's
unit of work, and DonaldsonModel.window.  Workload code wraps its own calls
with `Tracer.wrap`.  No package file is touched.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import threading
from collections import defaultdict
from time import perf_counter

# Classes whose constructor does the layer's work.  The package's other
# classes are values built in bulk (Cyclo, Gen, Window, Family, ...) and
# get no span.
ENTRY_CLASSES = {
    "chains": ("HomologyData", "FilteredPages"),
    "equivariant": ("BarComplexes", "NormData"),
    "floer": ("MinusPages",),
    "presented": ("ModuleWindow", "HomologyWindow"),
}
ENTRY_METHODS = {"donaldson": ("DonaldsonModel", "window")}


def _complex_size(cx):
    """(generators, boundary nonzeros) of a chains.FiniteComplex."""
    nnz = sum(len(col) for cols in cx.boundary.values() for col in cols)
    return cx.total_dim(), nnz


def _count_homology(tr, h, args):
    tr.add("chains.homology_dim", sum(h.dims().values()))
    tr.add("chains.boundary_rank", sum(h.rank_boundary.values()))


def _count_functor(tr, fm, args):
    gens, nnz = _complex_size(fm.complex)
    tr.add("equivariant.functor_generators", gens)
    tr.add("equivariant.functor_nnz", nnz)


def _count_window(tr, w, args):
    gens, nnz = _complex_size(w.complex)
    tr.add("donaldson.window_generators", gens)
    tr.add("donaldson.window_nnz", nnz)


def _count_table(tr, table, args):
    if tr.first_sight(table):  # lru-cached: count each table once
        tr.add("groups.irreps", len(table.irreps))


def _count_orthogonality(tr, result, args):
    groups = importlib.import_module("bpfloer.groups")
    tr.add("groups.inner_products", len(groups.character_table(args[0]).irreps) ** 2)


def _count_sgraph(tr, sg, args):
    if tr.first_sight(sg):
        tr.add("mckay.sgraph_vertices", len(sg.vertices))


# span name -> counter(tracer, result, call args); a constructor's result is
# the new instance.  Counters run after the span has closed.
COUNTERS = {
    "chains.HomologyData": _count_homology,
    "equivariant.functor_model": _count_functor,
    "donaldson.window": _count_window,
    "presented.ModuleWindow": lambda tr, mw, a: tr.add("presented.module_basis", len(mw.basis)),
    "presented.compare_windows": lambda tr, rep, a: tr.add(
        "presented.degrees_checked", len(rep.checked_degrees)),
    "floer.MinusPages": lambda tr, p, a: tr.maximum("floer.r_last_max", p.r_last),
    "groups.character_table": _count_table,
    "groups.verify_orthogonality": _count_orthogonality,
    "mckay.s_graph": _count_sgraph,
    "cs.cs_table": lambda tr, rows, a: tr.add("cs.flat_connections", len(rows)),
}


def span_name(obj):
    return "%s.%s" % (obj.__module__.rsplit(".", 1)[-1], obj.__name__)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []              # (id, name, start, end, parent, thread)
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._seen = {}
        self._lock = threading.Lock()   # counters are updated from worker threads

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, n):
        with self._lock:
            self.counts[name] += n

    def maximum(self, name, n):
        with self._lock:
            self.counts[name] = max(self.counts[name], n)

    def first_sight(self, obj):
        with self._lock:
            if id(obj) in self._seen:
                return False
            self._seen[id(obj)] = obj    # keep it alive so the id stays unique
            return True

    def wrap(self, fn, name=None, counts_instance=False):
        """fn with a span around each call; counters from COUNTERS after it.

        For a constructor (counts_instance) the counter sees the new
        instance and the constructor's own arguments.
        """
        name = name or span_name(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span was caused by the main thread's
            # innermost open span (the pool is started inside it)
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if counter is not None:
                if counts_instance:
                    counter(self, args[0], args[1:])
                else:
                    counter(self, result, args)
            return result

        return traced

    def wrap_init(self, cls, name):
        cls.__init__ = self.wrap(cls.__init__, name, counts_instance=True)

    def layer_metrics(self):
        """Busy time per span name (nested spans of the same name counted
        once), self time per module, and the counters."""
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append(s)
        out = {}
        for sid, name, start, end, parent, _ in self.spans:
            nested = False
            p = parent
            while p is not None:
                anc = by_id.get(p)
                if anc is None:
                    break
                if anc[1] == name:
                    nested = True
                    break
                p = anc[4]
            if not nested:
                out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
            module = name.split(".", 1)[0] + ".self_s"
            covered = _covered(start, end, children[sid])
            out[module] = out.get(module, 0.0) + (end - start) - covered
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path):
        """Write the spans out, one JSON object per span."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name, "start": start,
                    "end": end, "parent": parent, "thread": thread}) + "\n")


def _covered(start, end, kids):
    """Length of [start, end] covered by the union of the child intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for _, _, lo, hi, _, _ in sorted(kids, key=lambda s: s[2]):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def instrument(tracer):
    """Wrap bpfloer's cross-module calls, entry classes and entry methods."""
    package = importlib.import_module("bpfloer")
    modules = {
        info.name: importlib.import_module("bpfloer." + info.name)
        for info in pkgutil.iter_modules(package.__path__)
    }
    wrapped = {}
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            origin = getattr(obj, "__module__", None) or ""
            if not origin.startswith("bpfloer.") or origin == mod.__name__:
                continue
            if obj not in wrapped:
                wrapped[obj] = tracer.wrap(obj)
            setattr(mod, attr, wrapped[obj])
    for short, names in ENTRY_CLASSES.items():
        for cls_name in names:
            cls = getattr(modules[short], cls_name)
            tracer.wrap_init(cls, "%s.%s" % (short, cls_name))
    for short, (cls_name, method) in ENTRY_METHODS.items():
        cls = getattr(modules[short], cls_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), "%s.%s" % (short, method)))
