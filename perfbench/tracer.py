"""Span tracing of the pcsf layers from outside the program.

The tracer wraps each layer's public functions at every place they are
bound.  Several modules import names directly (``from .graph import
min_cut``), so patching only the defining module would undercount without
any error.  ``Tracer.install`` therefore finds every binding of each traced
function by identity across the ``pcsf.*`` module dicts, patches each one,
and then refuses to run if any reference to an unwrapped function is left
anywhere (a class attribute, a default argument, a container), or if a
``pcsf`` submodule was not loaded and so could not be scanned.

Spans are kept in memory as ``[name, start, end, parent, request, attrs]``
and written out by the caller when the run ends.
"""

from __future__ import annotations

import gc
import pkgutil
import sys
import time
import types

# layer -> (defining module, traced public functions)
LAYERS = {
    "simplex": ("pcsf.simplex", ("solve_min",)),    # solve_max calls solve_min
    "cutlp": ("pcsf.cutlp", ("solve_cut_lp", "solve_lp", "check_feasible")),
    "graph": ("pcsf.graph", ("min_cut",)),
    "exact": ("pcsf.exact", ("solve_ip", "enumerate_forests", "enumerate_ip")),
    "decomposition": ("pcsf.decomposition", ("min_alpha", "witness_costs_from_dual")),
}
LAYER_OF = {fn: layer for layer, (_, fns) in LAYERS.items() for fn in fns}

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class TracerCoverageError(RuntimeError):
    """A traced function is still reachable without its wrapper."""


def _attrs_solve_min(args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    return sum(len(r) for r in rows)                       # nonzeros


def _attrs_solve_cut_lp(args, kwargs, result):
    return (result.iterations, len(result.active_cuts))     # rounds, tight cuts


def _attrs_enumerate_forests(args, kwargs, result):
    return len(result)                                      # forests returned


ATTRS_OF = {
    "solve_min": _attrs_solve_min,
    "solve_cut_lp": _attrs_solve_cut_lp,
    "enumerate_forests": _attrs_enumerate_forests,
}


def pcsf_modules():
    """Every loaded ``pcsf`` module; fails if a submodule on disk is not loaded."""
    pkg = sys.modules["pcsf"]
    missing = [f"pcsf.{info.name}" for info in pkgutil.iter_modules(pkg.__path__)
               if f"pcsf.{info.name}" not in sys.modules]
    if missing:
        raise TracerCoverageError(f"pcsf modules not loaded, cannot scan: {missing}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "pcsf" or name.startswith("pcsf.")}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = 0          # set by the runner: index of the current result
        self.bindings = {}        # traced function -> ["module.name", ...]
        self._stack = []
        self._patched = []        # (module, name, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS_OF.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args, kwargs, result)
            return result

        traced.__name__ = traced.__qualname__ = name
        return traced

    def install(self):
        modules = pcsf_modules()
        originals = {name: getattr(modules[home], name)
                     for home, names in LAYERS.values() for name in names}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        by_id = {id(fn): name for name, fn in originals.items()}
        for modname, mod in sorted(modules.items()):
            for key, value in list(vars(mod).items()):
                name = by_id.get(id(value))
                if name is not None:
                    setattr(mod, key, wrappers[name])
                    self._patched.append((mod, key, value))
                    self.bindings.setdefault(name, []).append(f"{modname}.{key}")
        self._check_unpatched(originals, wrappers)

    def _check_unpatched(self, originals, wrappers):
        """Any referrer of an original other than its own wrapper's closure
        and this tracer's bookkeeping is a binding the tracer missed."""
        own = {id(self._patched)}
        for w in wrappers.values():
            own.update(id(cell) for cell in w.__closure__)
        leftovers = []
        gc.collect()
        for name in originals:
            for ref in gc.get_referrers(originals[name]):
                if id(ref) in own or isinstance(ref, types.FrameType) \
                        or ref is originals or (type(ref) is tuple and ref in self._patched):
                    continue
                leftovers.append(f"{name} held by {type(ref).__name__} {_describe(ref)}")
        if leftovers:
            self.uninstall()
            raise TracerCoverageError("unpatched bindings: " + "; ".join(leftovers))

    def uninstall(self):
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()


def _describe(ref):
    if isinstance(ref, dict):
        for modname, mod in sys.modules.items():
            if vars(mod) is ref:
                return f"(globals of {modname})"
        return f"(keys {sorted(map(str, ref))[:5]})"
    return repr(ref)[:80]


def layer_metrics(spans):
    """Per-layer counts and self times from a finished span list.

    Self time is a span's duration minus the time its direct child spans
    cover.  ``cutlp.calls`` counts entries into the layer (cutlp spans whose
    parent is not a cutlp span), so ``solve_lp`` around ``solve_cut_lp`` is
    one call.  Master solves and exact pricing count the LP solves and
    ``solve_ip`` calls whose nearest traced caller is ``min_alpha``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = dict.fromkeys(LAYERS, 0.0)
    m = dict.fromkeys((
        "simplex.calls", "simplex.max_call_s", "simplex.nnz",
        "cutlp.calls", "cutlp.rounds", "cutlp.active_cuts",
        "graph.min_cut_calls",
        "exact.solve_ip_calls", "exact.bnb_nodes", "exact.enum_forests",
        "decomposition.master_solves", "decomposition.exact_pricing"), 0)

    def under(idx, name):
        idx = spans[idx][PARENT]
        while idx >= 0:
            if spans[idx][NAME] == name:
                return True
            idx = spans[idx][PARENT]
        return False

    for idx, s in enumerate(spans):
        name = s[NAME]
        layer = LAYER_OF[name]
        duration = s[END] - s[START]
        self_s[layer] += duration - child[idx]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "solve_min":
            m["simplex.calls"] += 1
            m["simplex.max_call_s"] = max(m["simplex.max_call_s"], duration)
            m["simplex.nnz"] += s[ATTRS]
            if parent == "min_alpha":
                m["decomposition.master_solves"] += 1
        elif name == "min_cut":
            m["graph.min_cut_calls"] += 1
        elif name == "solve_ip":
            m["exact.solve_ip_calls"] += 1
            if parent == "min_alpha":
                m["decomposition.exact_pricing"] += 1
        elif name == "enumerate_forests":
            m["exact.enum_forests"] += s[ATTRS]
        if layer == "cutlp":
            if LAYER_OF.get(parent) != "cutlp":
                m["cutlp.calls"] += 1
            if name == "solve_cut_lp":
                rounds, active = s[ATTRS]
                m["cutlp.rounds"] += rounds
                m["cutlp.active_cuts"] += active
                if under(idx, "solve_ip"):
                    m["exact.bnb_nodes"] += 1
    for layer, seconds in self_s.items():
        m["graph.min_cut_self_s" if layer == "graph" else f"{layer}.self_s"] = seconds
    master = m["decomposition.master_solves"]
    # 1 - exact pricing / master solves; 0 with base 0 when min_alpha never ran
    m["decomposition.greedy_hit_ratio"] = (
        1 - m["decomposition.exact_pricing"] / master if master else 0.0)
    return m
