"""Outside-in instrumentation of schedsim's public functions.

Nothing in ``src/`` knows about this module.  For one op at a time it swaps
each hooked public function for a wrapper, in every loaded ``schedsim.*``
namespace that binds it, and puts the originals back afterwards.  Hooks are
looked up by public name: a hook whose name no longer resolves is skipped
and reported in :attr:`Instrument.missing`, so a refactor drops metrics
instead of failing runs.

Two uses share the patching:

* ``capture``: keep every ``SimResult`` returned by ``engine.run`` so that a
  CLI op's decisions can be checked.  This adds one untimed wrapper call per
  policy and is used in the untraced pass too.
* ``timing``: record a span (inclusive and self host seconds, call count)
  around every hook below.  Used only in the traced pass.
"""
from __future__ import annotations

import sys
from time import perf_counter

# (layer, module, public name).  ``make_scheduler`` additionally wraps the
# ``step`` method of every scheduler it returns, recorded as
# ``sched.step.<policy>``.
HOOKS = (
    ("channel", "schedsim.channel", "draw_fast_fading"),
    ("channel", "schedsim.channel", "instantaneous_rate"),
    ("channel", "schedsim.channel", "snr"),
    ("channel", "schedsim.channel", "place_users"),
    ("channel", "schedsim.channel", "draw_shadowing"),
    ("sched", "schedsim.sched", "make_scheduler"),
    ("sched", "schedsim.sched", "select"),
    ("metrics", "schedsim.metrics", "MetricsLog.record_slot"),
    ("metrics", "schedsim.metrics", "jain_index"),
    ("engine", "schedsim.engine", "run"),
    ("cli", "schedsim.cli", "parse_config"),
    ("cli", "schedsim.cli", "emit_csv"),
    ("cli", "schedsim.cli", "emit_figures"),
    ("svgplot", "schedsim.svgplot", "grouped_bar_chart"),
    ("svgplot", "schedsim.svgplot", "line_chart"),
)


class Record:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Instrument:
    """Context manager that patches the hooks for the duration of one op.

    ``records`` maps ``"<layer>.<name>"`` to a :class:`Record`;
    ``layer_s`` holds, per layer, the time of spans not nested in another
    span of the same layer; ``counters`` holds work counts taken from the
    hooked calls' arguments and results.  All three accumulate across ops.
    """

    def __init__(self, timing: bool, capture: bool):
        self.timing = timing
        self.capture = capture
        self.records: dict[str, Record] = {}
        self.layer_s: dict[str, float] = {}
        self.counters = {"fading_samples": 0, "trace_bytes": 0}
        self.missing: set[str] = set()
        self.results: list = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        self.results = []
        self._stack = []
        if self.timing:
            hooks = HOOKS
        else:
            hooks = (("engine", "schedsim.engine", "run"),) if self.capture else ()
        for layer, module, name in hooks:
            self._patch(layer, module, name)
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo = []
        return False

    def _patch(self, layer: str, module: str, name: str) -> None:
        owner = sys.modules.get(module)
        *path, attr = name.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.add("%s.%s" % (layer, name))
            return
        wrapper = self._wrap("%s.%s" % (layer, attr), layer, original, self._post(name))
        if path:  # a method: patch the class that defines it
            self._set(owner, attr, wrapper)
            return
        for mod in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "schedsim"]:
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._set(mod, key, wrapper)

    def _set(self, namespace, attr, value) -> None:
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _post(self, name: str):
        """Per-hook bookkeeping run on each call's result, outside its span."""
        if name == "run" and self.capture:
            return lambda args, result: self.results.append(result)
        if not self.timing:
            return None
        if name == "make_scheduler":
            return self._wrap_step
        if name == "draw_fast_fading":
            return self._count_fading
        if name == "instantaneous_rate":
            return self._count_rate_bytes
        return None

    def _wrap_step(self, args, scheduler) -> None:
        policy = getattr(scheduler, "name", None) or (args[0] if args else "unknown")
        step = getattr(scheduler, "step", None)
        if not callable(step):
            self.missing.add("sched.step")
            return
        scheduler.step = self._wrap("sched.step.%s" % policy, "sched", step, None)

    def _count_fading(self, args, result) -> None:
        self.counters["fading_samples"] += int(getattr(result, "size", 1))

    def _count_rate_bytes(self, args, result) -> None:
        # "Computed" bytes: the SNR matrix passed in plus the rate matrix
        # returned, as array sizes, not measured allocations.
        self.counters["trace_bytes"] += int(getattr(args[0], "nbytes", 0)) + int(
            getattr(result, "nbytes", 0)
        )

    # -- spans --------------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn, post):
        if not self.timing:
            def passthrough(*args, **kwargs):
                result = fn(*args, **kwargs)
                post(args, result)
                return result

            return passthrough

        rec = self.records.setdefault(key, Record())
        stack = self._stack
        layer_s = self.layer_s

        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec.calls += 1
                rec.incl_s += dt
                rec.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if not stack or stack[-1][0] != layer:
                    layer_s[layer] = layer_s.get(layer, 0.0) + dt
            if post is not None:
                post(args, result)
            return result

        return span
