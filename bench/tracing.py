"""Span tracing installed around ppinv's public functions from outside the
package.

ppinv modules import each other's functions by name (``from .x import
y``), so one function is bound in several module namespaces.
:meth:`Tracer.install` replaces every such binding with a wrapper that
records a span: name, start, end and the index of its parent span.  Spans
stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# the wrapped public functions, by ppinv module
LAYERS = {
    "gf_core": ("build_field", "mu_subgroup", "subfield_elements"),
    "poly_expr": ("parse_poly_expr", "tabulate", "interpolate",
                  "print_poly"),
    "agw_inverse": ("mul_family", "add_family", "hybrid_family",
                    "translator_family", "family_from_descriptor",
                    "invert_multiplicative", "invert_additive",
                    "invert_hybrid_scale", "invert_translator", "invert_niu",
                    "niu_forward"),
    "perm_core": ("as_permutation", "brute_inverse", "agw_verify",
                  "cycle_structure"),
    "involution_lab": ("check_mul_involution", "check_add_involution",
                       "check_hybrid_involution",
                       "check_translator_involution", "make_kuozhan",
                       "make_trace_gadget", "make_zero_translator"),
    "cli": ("run",),
}

# constructors whose outcomes feed agw_inverse.accept_ratio and the
# per-error rejection counts
CONSTRUCTORS = ("agw_inverse.mul_family", "agw_inverse.add_family",
                "agw_inverse.hybrid_family", "agw_inverse.translator_family")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items()
                   for fn in fns)


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn, error_type):
        constructor = name in CONSTRUCTORS
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                if constructor:
                    counts[f"rejects.{exc.name}"] += 1
                raise
            finally:
                self.close(idx)
            if constructor:
                counts["accepted"] += 1
            return result

        return traced

    def install(self):
        """Wrap every binding of the listed functions in every loaded
        ppinv module."""
        import ppinv.cli  # noqa: F401  (with ppinv, loads every module)
        from ppinv.errors import PPInvError
        wrappers = {}
        for mod, fns in LAYERS.items():
            home = sys.modules[f"ppinv.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrappers[id(orig)] = (orig, self._wrap(f"{mod}.{fn}", orig,
                                                       PPInvError))
        for name, module in list(sys.modules.items()):
            if name != "ppinv" and not name.startswith("ppinv."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> dict:
    """name -> [calls, self seconds], where self time is a span's duration
    minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - child[i]
    return out
