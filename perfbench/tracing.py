"""Per-layer call counts and self time, recorded from outside the program.

install() wraps every public function of each layer module and rebinds
the wrapper wherever a qspecial module holds that function: its own
namespace, every `from ... import` of it, the package namespace and
module-level dispatch tables.  A wrapper keeps one span open per call;
a layer's self time is the time of its spans minus the time of the spans
they enclose.
"""

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "kernels",
    "qcore",
    "qseries",
    "qcalculus",
    "qfunctions",
    "qdiffeq",
    "qorthopoly",
    "askey_wilson",
    "identities",
    "limits",
    "cli",
)
CALL_COUNTERS = (
    ("kernels", "qpoch_infinite"),
    ("kernels", "qpoch_finite"),
    ("kernels", "phi_sum"),
    ("qorthopoly", "big_qjacobi_recurrence"),
    ("qorthopoly", "big_qjacobi_weight"),
    ("askey_wilson", "aw_poly"),
    ("askey_wilson", "aw_recurrence"),
)
SELF_COUNTERS = (("qfunctions", "gamma_q"),)


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [(f"{layer}.{fn}.calls", "count") for layer, fn in CALL_COUNTERS]
    names += [("kernels.qpoch_finite.factors", "count"), ("qcore.qpoch.infinite_calls", "count")]
    names += [(f"{layer}.{fn}.self_s", "s") for layer, fn in SELF_COUNTERS]
    return names + [("trace.overhead_s", "s")]


def _public_functions(module, layer):
    if layer == "kernels":
        names = [n for n in module.__all__ if callable(getattr(module, n))]
    else:
        names = [
            n
            for n, v in vars(module).items()
            if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == module.__name__
        ]
    return {n: getattr(module, n) for n in names}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.factors = 0
        self.infinite_calls = 0
        self._stack = [0.0]
        self._patches = []

    def _wrap(self, key, fn, infinity):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        note = self._note(key, infinity)

        def wrapper(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                stack[-1] += elapsed
                self_s[key] += elapsed - child
                calls[key] += 1

        return wrapper

    def _note(self, key, infinity):
        """The argument counter of one function, or None."""
        if key == ("kernels", "qpoch_finite"):

            def factors(args, kwargs):
                self.factors += int(args[2] if len(args) > 2 else kwargs["k"])

            return factors
        if key == ("qcore", "qpoch"):

            def infinite(args, kwargs):
                k = args[2] if len(args) > 2 else kwargs.get("k")
                if isinstance(k, str) and k == infinity:
                    self.infinite_calls += 1

            return infinite
        return None

    def install(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qspecial" or name.startswith("qspecial."))
        }
        infinity = modules["qspecial.qcore"].INFINITY
        wrappers = {}
        for layer in LAYERS:
            module = modules.get("qspecial." + layer)
            if module is None:  # a layer the workload never imports does no work
                continue
            for name, fn in _public_functions(module, layer).items():
                wrappers[id(fn)] = (fn, self._wrap((layer, name), fn, infinity))
        for mod in modules.values():
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                self._rebind(namespace, name, value, wrappers)
                if isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        self._rebind(value, key, item, wrappers)

    def _rebind(self, table, key, value, wrappers):
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            self._patches.append((table, key, value))
            table[key] = hit[1]

    def uninstall(self):
        for table, key, value in reversed(self._patches):
            table[key] = value
        self._patches.clear()

    def metrics(self, overhead_s):
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(c for (l, _), c in self.calls.items() if l == layer)
            out[f"{layer}.self_s"] = sum((s for (l, _), s in self.self_s.items() if l == layer), 0.0)
        for layer, fn in CALL_COUNTERS:
            out[f"{layer}.{fn}.calls"] = self.calls[(layer, fn)]
        out["kernels.qpoch_finite.factors"] = self.factors
        out["qcore.qpoch.infinite_calls"] = self.infinite_calls
        for layer, fn in SELF_COUNTERS:
            out[f"{layer}.{fn}.self_s"] = self.self_s[(layer, fn)]
        out["trace.overhead_s"] = overhead_s
        return out
