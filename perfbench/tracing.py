"""In-memory span tracing of modwd's layers, from outside the package.

`install()` wraps public names of modwd's modules (and a few methods of
its classes) in place, in every modwd module that bound them, so that each
call records a span (id, parent, name, start, end).  A layer's self time
is its spans' durations minus the part covered by their child spans; the
self times of all spans plus the time outside any span add up to the
traced wall time, which `Tracer.balance` checks from the span list.

Only the benchmark's traced run installs this; the timed runs never do.
Layer names follow the modules, without the leading underscore of the
private ones (metric names must start with a letter or a digit).
"""

from __future__ import annotations

import sys
import time


def _matmul_mults(args, result):
    a, b = args[0].a, args[1].a
    return a.shape[0] * a.shape[1] * b.shape[1]


def _rref_cells(args, result):
    return args[0].a.size


def _decompose_dim(args, result):
    return args[0].dim


def _grid_size(args, result):
    return len(result)


def _covered(intervals, lo, hi):
    """Length of the union of the (start, end) intervals, clipped to
    [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.spans = []      # (id, parent id or -1, name, start, end)
        self.stack = []      # open spans: [id, child time]
        self.stats = {}      # name -> [calls, self seconds, work]
        self.fields = {}     # id(field) -> field, every field finite_field returned
        self.caches = {}     # label -> (lru-cached function, cache_info at install)
        self.t0 = None

    # -- wrappers ---------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0])

    def span(self, name, fn, work=None):
        """A wrapper of fn recording one span per call; work(args, result)
        adds to the name's work counter."""
        stat = self._stat(name)
        stack, spans = self.stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur - frame[1]
                spans.append((sid, parent, name, start, end))
            if work is not None:
                stat[2] += work(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.traced_as = name
        return wrapper

    def counter(self, name, fn):
        """A wrapper of fn that only counts calls (for very hot, cheap calls)."""
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.traced_as = name
        return wrapper

    # -- patching -----------------------------------------------------------------

    @staticmethod
    def _replace_everywhere(orig, new):
        """Rebind every module-level name in modwd that refers to orig."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "modwd"
                                   or modname.startswith("modwd.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)

    @staticmethod
    def _unwrapped(fn, label):
        """fn, unless a wrapper of this module: a function wrapped twice
        would count each call twice."""
        if hasattr(fn, "traced_as"):
            raise ValueError(f"{label} is traced already as {fn.traced_as}")
        return fn

    def wrap_function(self, name, module, attr, work=None):
        fn = self._unwrapped(getattr(module, attr), f"{module.__name__}.{attr}")
        self._replace_everywhere(fn, self.span(name, fn, work))

    def wrap_method(self, name, cls, attr, work=None, count_only=False):
        raw = cls.__dict__[attr]
        self._unwrapped(getattr(raw, "__func__", raw), f"{cls.__name__}.{attr}")
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.span(name, raw.__func__, work)))
        elif count_only:
            setattr(cls, attr, self.counter(name, raw))
        else:
            setattr(cls, attr, self.span(name, raw, work))

    def _field_seen(self, args, field):
        """Work hook of finite_field: remember the field, count nothing."""
        self.fields[id(field)] = field
        return 0

    # -- report ----------------------------------------------------------------------

    def _ratio(self, label):
        fn, before = self.caches[label]
        after = fn.cache_info()
        hits = after.hits - before.hits
        total = hits + after.misses - before.misses
        return hits / total if total else 0.0

    def _table_bytes(self):
        """Bytes of the Q x Q field tables, computed from their sizes: 8 per
        entry of the pure-Python add table, nbytes of the numpy tables."""
        total = 0
        for field in self.fields.values():
            if getattr(field, "_add", None) is not None:
                total += 8 * field.order * field.order
            for attr in ("_np_add", "_np_mul"):
                table = getattr(field, attr, None)
                if table is not None:
                    total += table.nbytes
        return total

    def _extended_oracle_calls(self):
        """Oracle spans with a field build (make_ctx) below them."""
        parent = {sid: (par, name) for sid, par, name, _, _ in self.spans}
        extended = set()
        for sid, par, name, _, _ in self.spans:
            if name != "field.build":
                continue
            while par != -1:
                par, pname = parent[par]
                if pname == "matrixmodel.oracle_tensor_ss":
                    extended.add(par)
                    break
        return len(extended)

    def _calls(self, name):
        return (self.stats[name][0], "count")

    def _secs(self, name):
        return (self.stats[name][1], "s")

    def _work(self, name):
        return self.stats[name][2]

    def balance(self, wall_end):
        """The time in [t0, wall_end] that no root span covers, and whether
        the spans account for the traced wall time.

        Both sides are recomputed from the span list alone: each span's
        self time is its duration less the union of its children, and the
        outside time is the window less the union of the root spans.  They
        add up to the window only if root spans are disjoint and inside it,
        and every child lies inside its parent without overlapping its
        siblings.  The self times must also match the ones accumulated
        while tracing, and no span may still be open."""
        wall = wall_end - self.t0
        children = {}
        for _, par, _, start, end in self.spans:
            children.setdefault(par, []).append((start, end))
        self_sum = sum(end - start - _covered(children.get(sid, ()), start, end)
                       for sid, _, _, start, end in self.spans)
        outside = wall - _covered(children.get(-1, ()), self.t0, wall_end)
        recorded = sum(s[1] for s in self.stats.values())
        # rounding: a few ulps of perf_counter per span
        tol = 1e-9 * (1 + len(self.spans))
        balanced = (not self.stack and abs(self_sum + outside - wall) < tol
                    and abs(recorded - self_sum) < tol)
        return outside, balanced

    def layer_metrics(self, wall_end):
        """Per-layer metrics, name -> (value, unit), and whether the self
        times add up to the traced wall time (see `balance`)."""
        wall = wall_end - self.t0
        outside, balanced = self.balance(wall_end)
        calls, secs = self._calls, self._secs
        factor_calls = sum(calls(f"factors.{f}")[0] for f in
                           ("l_factor", "gamma_factor", "epsilon_factor"))
        oracle_calls = calls("matrixmodel.oracle_tensor_ss")[0]
        decompose_calls = calls("matrixmodel.decompose")[0]
        m = {
            "field.build.calls": calls("field.build"),
            "field.build.s": secs("field.build"),
            "field.max_order": (max((f.order for f in self.fields.values()),
                                    default=0), "count"),
            "field.finite_field.hit_ratio": (self._ratio("finite_field"),
                                             "ratio"),
            "field.table_bytes": (self._table_bytes(), "bytes_computed"),
            "linalg.matmul.calls": calls("linalg.matmul"),
            "linalg.matmul.s": secs("linalg.matmul"),
            "linalg.matmul.mults": (self._work("linalg.matmul"), "count"),
            "linalg.rref.calls": calls("linalg.rref"),
            "linalg.rref.s": secs("linalg.rref"),
            "linalg.rref.cells": (self._work("linalg.rref"), "count"),
            "linalg.charpoly.calls": calls("linalg.charpoly"),
            "linalg.charpoly.s": secs("linalg.charpoly"),
            "linalg.fmat.allocs": calls("linalg.fmat.allocs"),
            "poly.roots.calls": calls("poly.roots"),
            "poly.roots.s": secs("poly.roots"),
            "factors.calls": (factor_calls, "count"),
            "factors.l_factor.s": secs("factors.l_factor"),
            "factors.gamma_factor.s": secs("factors.gamma_factor"),
            "factors.epsilon_factor.s": secs("factors.epsilon_factor"),
            "gln.rs_factors.s": secs("gln.rs_factors"),
            "gln.c_map.s": secs("gln.c_map"),
            "laurent.fraction_make.calls": calls("laurent.fraction_make"),
            "laurent.fraction_make.s": secs("laurent.fraction_make"),
            "laurent.is_unit.s": secs("laurent.is_unit"),
            "deligne.tensor_ss.calls": calls("deligne.tensor_ss"),
            "deligne.tensor_ss.s": secs("deligne.tensor_ss"),
            "deligne.normalize.calls": calls("deligne.normalize"),
            "deligne.normalize.s": secs("deligne.normalize"),
            "deligne.tensor_indec_cached.hit_ratio": (
                self._ratio("tensor_indec_cached"), "ratio"),
            "deligne.interval_profile.hit_ratio": (
                self._ratio("interval_profile"), "ratio"),
            "weil.line_of_char.hit_ratio": (self._ratio("line_of_char"),
                                            "ratio"),
            "matrixmodel.realize.calls": calls("matrixmodel.realize"),
            "matrixmodel.realize.s": secs("matrixmodel.realize"),
            "matrixmodel.decompose.calls": (decompose_calls, "count"),
            "matrixmodel.decompose.s": secs("matrixmodel.decompose"),
            "matrixmodel.oracle_tensor_ss.calls": (oracle_calls, "count"),
            "matrixmodel.oracle_tensor_ss.s": secs(
                "matrixmodel.oracle_tensor_ss"),
            "matrixmodel.dim.mean": (
                self._work("matrixmodel.decompose") / decompose_calls
                if decompose_calls else 0.0, "dim"),
            "matrixmodel.extension_ratio": (
                self._extended_oracle_calls() / oracle_calls
                if oracle_calls else 0.0, "ratio"),
            "verify.enumerate.s": secs("verify.enumerate"),
            "verify.grid_size": (self._work("verify.enumerate"), "count"),
            "trace.wall_s": (wall, "s"),
            "trace.outside_s": (outside, "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        return m, balanced

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            t0 = self.t0
            for sid, par, name, start, end in self.spans:
                fh.write(f"{sid}\t{par}\t{name}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\n")


def install() -> Tracer:
    """Wrap modwd's layer boundaries; call after `import modwd` and before
    anything binds modwd's names (the benchmark's workloads included)."""
    import modwd  # noqa: F401  (loads every submodule)
    from modwd import (_linalg, _poly, deligne, factors, field, gln, laurent,
                       matrixmodel, verify, weil)

    tr = Tracer()
    for label, fn in (("finite_field", field.finite_field),
                      ("tensor_indec_cached", deligne._tensor_indec_cached),
                      ("interval_profile", deligne.interval_profile),
                      ("line_of_char", weil._line_of_char)):
        tr.caches[label] = (fn, fn.cache_info())

    tr.wrap_function("field.build", field, "finite_field", tr._field_seen)
    tr.wrap_function("field.build", field, "make_ctx")
    tr.wrap_method("linalg.matmul", _linalg.FMat, "__matmul__", _matmul_mults)
    tr.wrap_method("linalg.rref", _linalg.FMat, "rref", _rref_cells)
    tr.wrap_method("linalg.charpoly", _linalg.FMat, "charpoly")
    tr.wrap_method("linalg.fmat.allocs", _linalg.FMat, "__init__",
                   count_only=True)
    tr.wrap_function("poly.roots", _poly, "roots_with_multiplicity")
    for name in ("l_factor", "gamma_factor", "epsilon_factor"):
        tr.wrap_function(f"factors.{name}", factors, name)
    for name in ("rs_l_factor", "rs_gamma_factor", "rs_epsilon_factor"):
        tr.wrap_function("gln.rs_factors", gln, name)
    tr.wrap_function("gln.c_map", gln, "c_map")
    tr.wrap_method("laurent.fraction_make", laurent.RationalFraction, "make")
    tr.wrap_function("laurent.is_unit", laurent, "is_unit")
    tr.wrap_function("deligne.tensor_ss", deligne, "tensor_ss")
    tr.wrap_function("deligne.normalize", deligne, "normalize")
    for name in ("realize", "decompose", "oracle_tensor_ss"):
        tr.wrap_function(f"matrixmodel.{name}", matrixmodel, name,
                         _decompose_dim if name == "decompose" else None)
    for name in ("enumerate_generic_reps", "enumerate_line_classes"):
        tr.wrap_function("verify.enumerate", verify, name, _grid_size)
    tr.t0 = time.perf_counter()
    return tr
