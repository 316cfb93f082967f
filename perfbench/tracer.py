"""Per-layer tracing of superkit from outside the program.

``Tracer.install`` wraps every public function and public method (plus the
operator dunders) of the traced layers, and rebinds each wrapper in every
``superkit`` module namespace -- and every module-level dict -- that holds
the original, because ``cli`` and ``components`` import names directly and
patching only the defining module would silently miss their calls.

Each wrapped call is a span (id, parent id, unit id, name, start, end).
Aggregates per name (calls, inclusive time, self time) are always kept;
individual spans are kept in memory up to ``span_cap`` and written when the
run ends.  Self time is a span's duration minus the time its child spans
cover, so the self times of all spans, including the benchmark's own root
span per unit, sum to the traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import time
import types

LAYERS = ("exactnum", "linalg", "grassmann", "spin_geometry", "symbols",
          "superfourier", "components", "cli")
ROOT = "bench.unit"

_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__matmul__", "__call__",
              "__eq__")
_QC_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__")
# superfourier operators whose superfunction argument feeds superfourier.width
_WIDTH_OPS = ("apply_P", "apply_Q", "apply_Qbar", "apply_D", "apply_Dbar",
              "apply_D2", "apply_Dbar2", "apply_zeta_momentum")
_MUL_SAMPLE_EVERY = 997
_MUL_SAMPLE_CAP = 256


class Tracer:
    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.stats = {}          # name -> [calls, inclusive s, self s, active depth]
        self.names = [ROOT]      # span name table; spans store the index
        self.spans = []          # (id, parent id, unit id, name index, start, end)
        self.spans_dropped = 0
        self.counters = {"linalg.entries_reduced": 0, "components.grid_points": 0,
                         "superfourier.width_sum": 0, "superfourier.width_n": 0,
                         "exactnum.max_bits": 0}
        self.mul_samples = []    # (QC, QC) operand pairs seen by QC.__mul__
        self.rebound = 0         # namespace slots rebound outside the defining module
        self._stack = [[0.0, 0]]  # sentinel frame: calls outside any unit
        self._ids = itertools.count(1)
        self._unit = 0
        self._undo = []
        self._originals = {}     # id(original function) -> wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        originals = self._originals
        for layer in LAYERS:
            mod = importlib.import_module(f"superkit.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "superkit" and not modname.startswith("superkit."):
                continue
            space = vars(mod)
            for name, obj in list(space.items()):
                if id(obj) in originals:
                    self._rebind(space, name, originals[id(obj)], mod)
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in originals:
                            self._rebind(obj, key, originals[id(val)], None)
        return self

    def unwrapped_slots(self):
        """Module-namespace slots in superkit that still hold an unwrapped original."""
        return [f"{modname}.{name}" for modname, mod in list(sys.modules.items())
                if modname == "superkit" or modname.startswith("superkit.")
                for name, obj in vars(mod).items() if id(obj) in self._originals]

    def uninstall(self):
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def _rebind(self, space, key, wrapper, mod):
        original = space[key]
        space[key] = wrapper
        self._undo.append(lambda: space.__setitem__(key, original))
        if mod is not None and wrapper.__module__ != mod.__name__:
            self.rebound += 1

    def _wrap_class(self, cls, layer):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(obj, types.FunctionType):
                new = self._wrap(obj, key)
            elif isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(obj.__func__, key))
            else:
                continue
            setattr(cls, name, new)
            self._undo.append(lambda c=cls, n=name, o=obj: setattr(c, n, o))

    def _wrap(self, fn, key):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        self.names.append(key)
        name_idx = len(self.names) - 1
        before, after = self._probes(key)
        stack, spans, ids = self._stack, self.spans, self._ids
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = next(ids)
            parent = stack[-1]
            frame = [0.0, sid]
            stack.append(frame)
            stat[3] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stat[3] -= 1
                d = t1 - t0
                stat[0] += 1
                if not stat[3]:
                    stat[1] += d
                stat[2] += d - frame[0]
                parent[0] += d
                if len(spans) < tracer.span_cap:
                    spans.append((sid, parent[1], tracer._unit, name_idx, t0, t1))
                else:
                    tracer.spans_dropped += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _probes(self, key):
        """Counters read from a call's arguments (before) or result (after)."""
        counters = self.counters
        layer, _, name = key.partition(".")
        if key == "linalg.row_echelon":
            def before(args):
                mat = args[0]
                if mat:
                    counters["linalg.entries_reduced"] += len(mat) * len(mat[0])
            return before, None
        if key == "components.grid_residual":
            def before(args):
                counters["components.grid_points"] += args[2].n ** 4
            return before, None
        if layer == "superfourier" and name in _WIDTH_OPS:
            def before(args):
                # read the terms directly: SuperFunction.all_momenta is itself traced
                comps = args[-1].comps.values()
                counters["superfourier.width_sum"] += len({q for g in comps for q in g.terms})
                counters["superfourier.width_n"] += 1
            return before, None
        if layer == "exactnum" and name.startswith("QC.") and name[3:] in _QC_ARITH:
            from superkit.exactnum import QC
            samples = self.mul_samples
            sample = name == "QC.__mul__"
            seen = itertools.count()

            def after(args, result):
                if type(result) is QC:
                    bits = max(result.re.numerator.bit_length(),
                               result.re.denominator.bit_length(),
                               result.im.numerator.bit_length(),
                               result.im.denominator.bit_length())
                    if bits > counters["exactnum.max_bits"]:
                        counters["exactnum.max_bits"] = bits
                    if (sample and type(args[1]) is QC and len(samples) < _MUL_SAMPLE_CAP
                            and next(seen) % _MUL_SAMPLE_EVERY == 0):
                        samples.append((args[0], args[1]))
            return None, after
        return None, None

    # -- units ----------------------------------------------------------------

    @contextlib.contextmanager
    def unit(self, unit_id):
        """Root span of one benchmark unit; every traced call nests inside one."""
        stat = self.stats.setdefault(ROOT, [0, 0.0, 0.0, 0])
        self._unit = unit_id
        sid = next(self._ids)
        frame = [0.0, sid]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            d = t1 - t0
            stat[0] += 1
            stat[1] += d
            stat[2] += d - frame[0]
            if len(self.spans) < self.span_cap:
                self.spans.append((sid, 0, unit_id, 0, t0, t1))
            else:
                self.spans_dropped += 1

    # -- results --------------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, [0])[0]

    def inclusive_s(self, key):
        return self.stats.get(key, [0, 0.0])[1]

    def layer_totals(self):
        """layer -> (calls, self seconds), over every traced name of the layer."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, _incl, self_s, _active) in self.stats.items():
            layer = key.partition(".")[0]
            if layer in out:
                out[layer][0] += calls
                out[layer][1] += self_s
        return out

    def qc_ops(self):
        return sum(self.calls(f"exactnum.QC.{op}") for op in _QC_ARITH)

    def self_sum(self):
        return sum(s[2] for s in self.stats.values())

    def root_wall(self):
        return self.inclusive_s(ROOT)

    def dump(self):
        return {"names": self.names, "spans_dropped": self.spans_dropped,
                "span_fields": ["id", "parent", "unit", "name", "start_s", "end_s"],
                "spans": self.spans,
                "stats": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.stats.items()) if v[0]}}
