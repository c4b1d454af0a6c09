"""Span tracing of the weakpol layers, installed from outside the package.

A traced run replaces every public function of the layer modules
(``weakpol.fock``, ``device``, ``weak_values``, ``imperfection``,
``counting``, ``cli``) with a wrapper that records a span: the op it ran
for, its name, start, end and the span that called it. The wrapper is also
put in place of every name another ``weakpol`` module imported from a layer
(``counting.channel_postselected_probs``, ``imperfection.coincidence_operator``,
the package namespace ...), so calls between layers are seen no matter how
the caller spelled them. Spans stay in memory until the run ends; call
counts, inclusive times and per-layer self times are derived from them.

Nothing here imports weakpol: the CLI launcher installs the import timer
before the package is imported.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("fock", "device", "weak_values", "imperfection", "counting", "cli")
# private helpers wrapped as well, because a metric needs them
PRIVATE_WRAPPED = {"cli": ("_write_outputs_atomic",)}
# the CSV/sidecar writers; only the outermost of nested ones is counted
WRITE_SPANS = frozenset({
    "counting.write_fig2_csv",
    "counting.format_fig2_csv",
    "cli._write_outputs_atomic",
})
# one evaluation of a channel on an input state
EVAL_SPANS = ("imperfection.channel_postselected_probs",
              "imperfection.channel_joint_distribution")
ESTIMATE_SPANS = ("counting.estimate_knowledge", "counting.estimate_weak_value")


class Tracer:
    """Collects spans from wrapped layer functions.

    A span is ``[op, name, start_s, end_s, parent, child_s]``: ``parent`` is
    the index of the calling span (-1 at the top) and ``child_s`` the time
    its direct children covered, so self time is ``end - start - child_s``.
    The wrapper only records; ``summary`` aggregates afterwards.
    """

    FIELDS = ("op", "name", "start_s", "end_s", "parent", "child_s")

    def __init__(self):
        self.op = -1
        self.spans = []
        self._stack = []       # indices of the open spans
        self._installed = []   # (module, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][5] += end - span[2]

        return traced

    def install(self):
        """Wrap the public functions of every imported layer module."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"weakpol.{layer}")
            if module is None:
                continue
            extra = PRIVATE_WRAPPED.get(layer, ())
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "weakpol" or mod_name.startswith("weakpol.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, obj in reversed(self._installed):
            setattr(module, attr, obj)
        self._installed.clear()

    def adopt(self, spans, op):
        """Append spans recorded by a traced child process as part of ``op``."""
        base = len(self.spans)
        for _, name, start, end, parent, child_s in spans:
            self.spans.append([op, name, start, end, parent + base if parent >= 0 else -1, child_s])

    # -- results -----------------------------------------------------------

    def summary(self):
        """(calls per name, inclusive s per name, self s per layer, writer s)."""
        calls, total, self_s = Counter(), Counter(), Counter()
        write_s = 0.0
        in_write = []
        for _, name, start, end, parent, child_s in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_s[name.split(".", 1)[0]] += duration - child_s
            inside = parent >= 0 and in_write[parent]
            if name in WRITE_SPANS and not inside:
                write_s += duration
            in_write.append(inside or name in WRITE_SPANS)
        return calls, total, self_s, write_s

    def dump(self, path, extra=None):
        payload = {"fields": self.FIELDS, "spans": self.spans}
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class ScipyImportTimer:
    """Times the outermost ``import scipy...`` statements while installed."""

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0
        self._original = None

    def install(self):
        self._original = original = builtins.__import__

        def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
            if self._depth or level or not (name == "scipy" or name.startswith("scipy.")):
                return original(name, globals, locals, fromlist, level)
            self._depth += 1
            start = time.perf_counter()
            try:
                return original(name, globals, locals, fromlist, level)
            finally:
                self.seconds += time.perf_counter() - start
                self._depth -= 1

        builtins.__import__ = timed_import

    def uninstall(self):
        builtins.__import__ = self._original


def layer_values(tracer: Tracer, n_ops: int, cli: dict, overhead_pct: float,
                 speed_scale: float) -> dict:
    """Per-layer metric values from a tracer that recorded ``n_ops`` ops.

    ``cli`` holds the medians measured around traced CLI processes
    (import_ms, import_scipy_ms, main_ms, interpreter_start_ms); they read 0
    on workloads that do not start the CLI. Times are multiplied by
    ``speed_scale``, which brings them to the benchmark's reference speed.
    """
    calls, total, self_s, write_s = tracer.summary()

    def per_op(count):
        return count / n_ops

    def per_call(names, scale):
        n = sum(calls[name] for name in names)
        return sum(total[name] for name in names) * scale * speed_scale / n if n else 0.0

    def self_ms(layer):
        return self_s[layer] * 1e3 * speed_scale / n_ops

    return {
        "fock.beam_splitter_calls_per_op": per_op(calls["fock.apply_beam_splitter"]),
        "fock.self_ms_per_op": self_ms("fock"),
        "device.run_device_us": per_call(("device.run_device",), 1e6),
        "device.equivalence_fidelity_us": per_call(("device.equivalence_fidelity",), 1e6),
        "device.coincidence_operator_calls_per_op": per_op(calls["device.coincidence_operator"]),
        "device.self_ms_per_op": self_ms("device"),
        "weak_values.self_ms_per_op": self_ms("weak_values"),
        "imperfection.imperfect_channel_us": per_call(("imperfection.imperfect_channel",), 1e6),
        "imperfection.channel_evals_per_op": per_op(sum(calls[name] for name in EVAL_SPANS)),
        "imperfection.channel_eval_us": per_call(EVAL_SPANS, 1e6),
        "imperfection.process_tomography_ms": per_call(("imperfection.process_tomography",), 1e3),
        "imperfection.fit_visibility_ms": per_call(("imperfection.fit_visibility",), 1e3),
        "imperfection.invert_s1_ms": per_call(("imperfection.invert_s1",), 1e3),
        "imperfection.self_ms_per_op": self_ms("imperfection"),
        "counting.sample_counts_us": per_call(("counting.sample_counts",), 1e6),
        "counting.estimate_us": per_call(ESTIMATE_SPANS, 1e6),
        "counting.self_ms_per_op": self_ms("counting"),
        "counting.write_ms_per_op": write_s * 1e3 * speed_scale / n_ops,
        "cli.import_ms": cli.get("import_ms", 0.0) * speed_scale,
        "cli.import_scipy_ms": cli.get("import_scipy_ms", 0.0) * speed_scale,
        "cli.main_ms": cli.get("main_ms", 0.0) * speed_scale,
        "cli.interpreter_start_ms": cli.get("interpreter_start_ms", 0.0) * speed_scale,
        "trace.overhead_pct": overhead_pct,
    }
