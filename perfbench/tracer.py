"""Spans and counters around calls into qgal's layers.

The wrappers are installed from outside the program: after `qgal.cli`
is imported, every module attribute and class attribute listed in
LAYERS is replaced by a wrapper that records a span (name, start, end,
self time, parent span, operation id) and, where the layer has one, a
count taken from the call's result.  Scalar arithmetic is only counted,
never spanned: it runs millions of times per operation.

Spans stay in memory until the caller writes them out.  Self time is a
span's duration minus the time of its child spans, which nest because
qgal is single-threaded.
"""

from __future__ import annotations

import gc
import importlib
import time

def _one(_):
    return 1


# (module, attribute, span name, {count name: count of one call's result})
LAYERS = [
    ("presentations", "catalog", "presentations.catalog", {}),
    ("presentations", "coaction", "presentations.coaction", {}),
    ("presentations", "verify_star", "presentations.verify", {}),
    ("presentations", "verify_hopf", "presentations.verify", {}),
    ("presentations", "verify_coaction", "presentations.verify", {}),
    ("rewrite", "build_system", "rewrite.build", {}),
    ("rewrite", "complete", "rewrite.complete",
     {"rewrite.rules": lambda rs: len(rs.rules)}),
    ("rewrite", "RewriteSystem.normal_form", "rewrite.nf",
     {"rewrite.nf_calls": _one}),
    ("rewrite", "word_basis", "rewrite.word_basis",
     {"rewrite.basis_words": len}),
    ("linalg", "RowReducer.add_equation", "linalg.solve",
     {"linalg.equations": _one, "linalg.rank": int}),
    ("linalg", "RowReducer.solution", "linalg.solve", {}),
    ("linalg", "nullspace", "linalg.nullspace", {}),
    ("haar", "haar_on_hopf", "haar.hopf", {}),
    ("haar", "haar_on_extension", "haar.extension", {}),
    ("haar", "gram_matrix", "haar.gram", {}),
    ("haar", "gram_positivity", "haar.gram", {}),
    ("galois", "verify_galois", "galois.verify",
     {"galois.checks": lambda report: len(report.items)}),
    ("galois", "validate_witness", "galois.verify", {}),
    ("cotensor", "compute_cotensor", "cotensor.compute",
     {"cotensor.kernel_dim": len}),
    ("characters", "groebner", "characters.groebner", {}),
]

# Spans of these layers swallow their children: the elimination inside
# `nullspace` is nullspace time, not solve time.
OPAQUE = {"linalg.nullspace"}

IMPORT_SPAN = "cli.import"
MEMO_COUNT = "rewrite.nf_memo_words"
SCALAR_COUNTS = ("scalars.add_calls", "scalars.mul_calls",
                 "scalars.inv_calls", "scalars.laurent_ops")


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {IMPORT_SPAN + "_s": "s"}
    for _, _, span, counts in LAYERS:
        names[span + "_s"] = "s"
        for count in counts:
            names[count] = "count"
    names[MEMO_COUNT] = "count"
    for name in SCALAR_COUNTS:
        names[name] = "count"
    return names


class Tracer:
    """Records spans and counts while an operation is active."""

    def __init__(self, process_tag=""):
        self.tag = process_tag
        self.spans = []          # [id, name, start, end, self_s, parent, op]
        self.counts = {}         # op id -> {count name: total}
        self.scalar = [0, 0, 0, 0]   # add, mul, inv, laurent
        self.op = None
        self._scalar_mark = None
        self._stack = []         # open frames: [span id, child seconds]
        self._opaque = 0
        self._next_id = 0

    # -- operations ---------------------------------------------------------

    def begin(self, op_id):
        self.op = op_id
        self._scalar_mark = list(self.scalar)

    def end(self):
        for name, now, then in zip(SCALAR_COUNTS, self.scalar,
                                   self._scalar_mark):
            self.add_count(name, now - then)
        self.op = None

    def add_count(self, name, n):
        counts = self.counts.setdefault(self.op, {})
        counts[name] = counts.get(name, 0) + n

    def sample_memo(self):
        """Add the normal-form memo size of every live rewrite system."""
        from qgal.rewrite import RewriteSystem

        words = sum(len(o._nf_cache) for o in gc.get_objects()
                    if type(o) is RewriteSystem)
        self.add_count(MEMO_COUNT, words)

    def export(self):
        return {"spans": self.spans, "counts": self.counts}

    def record(self, name, start, end):
        """A span without children, such as the import of qgal.cli."""
        self._close(name, start, end, 0.0,
                    self._stack[-1][0] if self._stack else None, self._new_id())

    # -- spans --------------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return f"{self.tag}{self._next_id}"

    def _close(self, name, start, end, child_s, parent, span_id):
        dur = end - start
        self.spans.append([span_id, name, start, end, dur - child_s, parent,
                           self.op])
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, fn, name, counts):
        tracer = self
        clock = time.perf_counter
        opaque = name in OPAQUE

        def traced(*args, **kwargs):
            if tracer.op is None or tracer._opaque:
                result = fn(*args, **kwargs)
            else:
                parent = tracer._stack[-1][0] if tracer._stack else None
                span_id = tracer._new_id()
                frame = [span_id, 0.0]
                tracer._stack.append(frame)
                tracer._opaque += opaque
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    tracer._opaque -= opaque
                    tracer._stack.pop()
                    tracer._close(name, start, end, frame[1], parent, span_id)
            if tracer.op is not None:
                for count, count_of in counts.items():
                    tracer.add_count(count, count_of(result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Replace every LAYERS target, wherever qgal imported it by name."""
        modules = [importlib.import_module("qgal." + m) for m in (
            "characters", "cli", "comodules", "cotensor", "galois", "haar",
            "linalg", "ncpoly", "presentations", "rewrite", "scalars")]
        for mod_name, attr, span, counts in LAYERS:
            mod = importlib.import_module("qgal." + mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), span, counts))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(original, span, counts)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        self._count_scalars()

    def _count_scalars(self):
        from qgal.scalars import ScalarQ

        tracer = self
        c = self.scalar
        one = {0: 1}

        def unit(x):
            return not isinstance(x, ScalarQ) or x.den.coeffs == one

        def counted(fn, slot):
            def op(self, other):
                if tracer.op is not None:
                    c[slot] += 1
                    if self.den.coeffs == one and unit(other):
                        c[3] += 1
                return fn(self, other)
            return op

        def counted_inv(fn):
            def inv(self):
                if tracer.op is not None:
                    c[2] += 1
                    if self.den.coeffs == one:
                        c[3] += 1
                return fn(self)
            return inv

        ScalarQ.__add__ = ScalarQ.__radd__ = counted(ScalarQ.__add__, 0)
        ScalarQ.__mul__ = ScalarQ.__rmul__ = counted(ScalarQ.__mul__, 1)
        ScalarQ.inv = counted_inv(ScalarQ.inv)


def per_op(trace):
    """Metric values per operation id from an exported trace: the self
    seconds of each span name (as `<name>_s`) and the counts."""
    out = {}
    for _, name, _, _, own, _, op in trace["spans"]:
        values = out.setdefault(op, {})
        values[name + "_s"] = values.get(name + "_s", 0.0) + own
    for op, counts in trace["counts"].items():
        values = out.setdefault(op, {})
        for name, n in counts.items():
            values[name] = values.get(name, 0) + n
    return out
