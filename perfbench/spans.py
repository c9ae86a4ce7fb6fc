"""In-memory span recorder for the traced benchmark run.

The library is not instrumented.  For the traced pass, every name under which
an ``angelesco`` module looks up a traced function (for example
``angelesco.polynomials.gamma_ratio``) is rebound to a wrapper that records a
span around the call, and the original bindings are restored afterwards.
A span is ``[name, start, end, parent, item, child_s]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``item`` the index of the
benchmark item it belongs to, and ``child_s`` the time covered by its direct
children, so self time is ``end - start - child_s``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from contextlib import contextmanager

# The traced function's span names.  The part before the first dot is the
# layer (a module of the library); a split suffix, when a function has one,
# is appended at return time by the function's namer below.
TRACED = (
    ("numerics.gamma_ratio", "angelesco.numerics", "gamma_ratio"),
    ("poly.poly_eval", "angelesco.poly", "poly_eval"),
    ("polynomials.base_poly", "angelesco.polynomials", "base_poly"),
    ("polynomials.type1", "angelesco.polynomials", "type1_diagonal"),
    ("polynomials.type1", "angelesco.polynomials", "type1_up"),
    ("polynomials.type1", "angelesco.polynomials", "type1_down"),
    ("orthogonality.verify_type1", "angelesco.orthogonality", "verify_type1"),
    ("recurrence.recurrence_residual", "angelesco.recurrence", "recurrence_residual"),
    ("operators.ode_coeffs", "angelesco.operators", "ode_coeffs"),
    ("operators.ode_residual", "angelesco.operators", "ode_residual"),
    ("operators.lowering_check", "angelesco.operators", "lowering_check"),
    ("operators.raising_check", "angelesco.operators", "raising_check"),
    ("zeros.find_zeros", "angelesco.zeros", "find_zeros"),
    ("asymptotics.theta_of_hatx", "angelesco.asymptotics", "theta_of_hatx"),
    ("asymptotics.density_curve", "angelesco.asymptotics", "density_curve"),
    ("asymptotics.perron_density", "angelesco.asymptotics", "perron_density"),
    ("asymptotics.cubic_branches_r2", "angelesco.asymptotics", "cubic_branches_r2"),
    ("asymptotics.endpoint_exponents", "angelesco.asymptotics", "endpoint_exponents"),
)

# The ODE check is reported split at the degree where its documented double
# path ends (n <= 9) and its extended-precision path begins (n >= 10).
ODE_DOUBLE_MAX_N = 9


class Recorder:
    """Spans of one traced pass, plus values observed at span boundaries."""

    def __init__(self):
        self.spans = []
        self.item = -1
        self.newton_iters = 0
        self.zeros_worst_residual = 0.0
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item, 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx, name=None):
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        if name is not None:
            span[0] = name
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def self_times(self):
        """(name, item, self seconds) for every span."""
        return [(s[0], s[4], s[2] - s[1] - s[5]) for s in self.spans]

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, item, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")


def _zeros_namer(rec, args, kwargs, result):
    rec.newton_iters += int(result.newton_iters.sum())
    rec.zeros_worst_residual = max(rec.zeros_worst_residual, float(result.residuals.max()))
    return f"zeros.find_zeros.{result.precision}"


def _ode_namer(rec, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    path = "double" if spec.n <= ODE_DOUBLE_MAX_N else "mpmath"
    return f"operators.ode_residual.{path}"


_NAMERS = {"zeros.find_zeros": _zeros_namer, "operators.ode_residual": _ode_namer}


def _wrap(rec, name, fn):
    namer = _NAMERS.get(name)

    def traced(*args, **kwargs):
        idx = rec.open(name)
        final = None
        try:
            result = fn(*args, **kwargs)
            if namer is not None:
                final = namer(rec, args, kwargs, result)
            return result
        finally:
            rec.close(idx, final)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def tracing(rec):
    """Rebind every library lookup of a traced function for the duration."""
    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "angelesco"]
    patches = []
    for name, modname, attr in TRACED:
        fn = getattr(sys.modules[modname], attr)
        wrapper = _wrap(rec, name, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)
    try:
        yield rec
    finally:
        for mod, key, fn in reversed(patches):
            setattr(mod, key, fn)
