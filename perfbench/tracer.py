"""Outside-in tracer for the layer modules of torcycle.

``install()`` imports the layer modules, wraps every public function of
each and puts the wrapper in place of every module-level binding of that
function in any loaded ``torcycle`` module (``ctp.canonicalize`` and
``tautring.canonicalize`` are separate bindings of one function).  It also
wraps ``TautClass.__init__`` and ``ProductClass.__init__`` to count
constructions and offered terms, and the integrand argument of the two
quadrature drivers to count evaluations.  ``restore()`` puts every original
back.  Bindings held elsewhere (dict values, default arguments) are left
alone, so such calls are charged to the caller.

Each call records a span ``[name, start, end, parent]`` in memory; self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "torcycle"
LAYERS = ("cli", "pipeline", "tautring", "chern", "algebra", "excess", "ctp", "period")
#: Functions whose integrand argument (the first) is counted per evaluation.
QUADRATURE_DRIVERS = ("period.contour_integrate", "period.segment_integrate")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts = {"tautring.TautClass.terms": 0, "period.integrand_evals": 0,
                       "ctp.trees_returned": 0}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            rec = [name_id, perf_counter(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _count_terms(self, args, kwargs):
        terms = args[2] if len(args) > 2 else kwargs.get("terms")
        self.counts["tautring.TautClass.terms"] += len(terms) if terms else 0
        return args

    def _count_evals(self, args, kwargs):
        fn, counts = args[0], self.counts

        def counted(*a):
            counts["period.integrand_evals"] += 1
            return fn(*a)

        return (counted,) + args[1:]

    def _count_trees(self, result):
        self.counts["ctp.trees_returned"] += len(result)

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{obj.__qualname__}"
                before = self._count_evals if name in QUADRATURE_DRIVERS else None
                after = self._count_trees if name == "ctp.enumerate_stable_trees" else None
                wrappers[id(obj)] = self._wrap(name, obj, before, after)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        tautring = modules["tautring"]
        for cls, before in ((tautring.TautClass, self._count_terms),
                            (tautring.ProductClass, None)):
            init = cls.__dict__["__init__"]
            self._saved.append((cls, "__init__", init))
            cls.__init__ = self._wrap(f"tautring.{cls.__name__}.init", init, before)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self, total_names=()) -> dict:
        """Per name: calls, self seconds and, for ``total_names``, inclusive
        seconds of outermost calls; plus the counters and the parent-based
        counts the per-layer ratios need."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        total_s = dict.fromkeys(total_names, 0.0)
        canon_in_trees = checks_in_equiv = completions_in_equiv = 0
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            calls[name] += 1
            self_s[name] += end - start - child[i]
            parent_name = names[spans[parent][0]] if parent >= 0 else ""
            if name == "tautring.canonicalize" and parent_name == "ctp.enumerate_stable_trees":
                canon_in_trees += 1
            elif name == "ctp.check_pairing" and parent_name == "ctp.pairing_equivalent":
                checks_in_equiv += 1
            elif name == "ctp.completion" and parent_name == "ctp.pairing_equivalent":
                completions_in_equiv += 1
            if name in total_s:
                p = parent
                while p >= 0 and spans[p][0] != name_id:
                    p = spans[p][3]
                if p < 0:
                    total_s[name] += end - start
        return {"calls": calls, "self_s": self_s, "total_s": total_s,
                "counts": dict(self.counts, **{
                    "ctp.canonicalize_in_trees": canon_in_trees,
                    "ctp.checks_in_equivalence": checks_in_equiv,
                    "ctp.completions_in_equivalence": completions_in_equiv})}

    def write_spans(self, path: str) -> None:
        """All spans as ``name<TAB>start<TAB>end<TAB>parent`` lines."""
        with open(path, "w") as fh:
            fh.write("".join(f"{self.names[n]}\t{s!r}\t{e!r}\t{p}\n"
                             for n, s, e, p in self.spans))
