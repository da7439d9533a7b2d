"""Spans around ebhess's layers, recorded from outside the package.

While a :class:`Tracer` is installed it replaces the public functions each
module takes from another (``ebhess.ebh.pivot_block_solve``,
``ebhess.approx.funm``, ...) and the operator's ``apply``/``solve`` with
wrappers that record one span per call: name, start, end and parent.  The
originals are put back when the ``with`` block ends, so untraced passes run
the unmodified code.  Spans stay in memory; the caller writes them out.
"""

import contextlib
import time

# (span name, modules whose attribute is replaced, attribute).  A function is
# patched where its caller looks it up, so every call from inside ebhess is
# seen.
FUNCTION_SPANS = (
    ("dense.pivot_block_solve", ("ebh", "shifted"), "pivot_block_solve"),
    ("dense.plu_factor", ("ebh", "shifted"), "plu_factor"),
    ("ebh.ebha_run", ("approx", "shifted"), "ebha_run"),
    ("ebh.build_T", ("approx", "shifted"), "build_T"),
    ("matfun.funm", ("approx",), "funm"),
    ("matfun.expm", ("matfun",), "expm"),
)
METHOD_SPANS = (
    ("operators.apply", "apply"),
    ("operators.solve", "solve"),
)


class Tracer:
    """Records spans as ``[name, start, end, parent index]`` lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, eb):
        """Patch ebhess (the imported package) for the duration of the block."""
        saved = []
        try:
            for name, modules, attr in FUNCTION_SPANS:
                for mod in modules:
                    target = getattr(eb, mod)
                    saved.append((target, attr, getattr(target, attr)))
                    setattr(target, attr, self.wrap(name, getattr(target, attr)))
            cls = eb.FactorizedOperator
            for name, attr in METHOD_SPANS:
                saved.append((cls, attr, getattr(cls, attr)))
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)


def summarize(spans, pass_s):
    """Per-name ``calls``, inclusive ``s`` and ``self_s`` of one pass.

    A span's self time is its duration minus the durations of its direct
    children.  Also returns the untraced remainder: the part of ``pass_s``
    outside every top-level span.
    """
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            top += end - start
        else:
            child[parent] += end - start
    stats = {}
    for (name, start, end, _), covered in zip(spans, child):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - covered
    return stats, pass_s - top
