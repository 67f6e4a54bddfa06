"""Spans around calls into datactl's modules, recorded from outside.

``Tracer.install`` rebinds each traced public function, in its own module and
in every datactl module that imported it by name, to a wrapper that records a
span (name, start, end, parent).  Calls between modules, and calls a module
makes to its own traced functions, therefore open nested spans without any
change to the library.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs that get a span.  Their self times are the
# per-layer metrics; anything a function calls that has no span of its own
# counts toward that function.
TRACED = {
    "cli": ("main",),
    "dsl": (
        "parse_policy", "parse_trace", "parse_architecture", "parse_arch_trace",
        "parse_has_query", "sniff_kind", "serialize_architecture", "serialize_arch_trace",
    ),
    "model": ("validate_model",),
    "semantics": ("iter_states",),
    "compliance": ("check_trace", "check_rule"),
    "architecture": ("enumerate_states",),
    "logic": ("deduce", "conclusions", "eval_semantic"),
    "mapping": (
        "derive_architecture", "image_trace", "check_correspondence", "compare_architectures",
    ),
}
LAYERS = tuple(TRACED) + ("bench",)


class Tracer:
    """Spans and counts for one traced pass.

    ``spans[i]`` is ``(name, start, end, parent)`` with ``parent`` the index
    of the enclosing span or -1.  Counting code runs outside the span it
    counts and is itself recorded as a ``bench.count`` span, so its time is
    charged to the benchmark rather than to the library.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []
        self.counts: Counter = Counter()
        self.enumerations: list = []  # (pa, max_len, universe, states) per call
        self.audits: list = []  # (trace length, check_trace span index)

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        self.spans[idx] = (name, start, perf_counter(), parent)
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, parent, name, start)

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "semantics.iter_states":
                    # the fold is lazy; run it inside the span (its one caller
                    # lists it at once, so the order of effects is unchanged)
                    result = iter(list(result))
            finally:
                self._close(idx, parent, name, start)
            if count is not None:
                self.call("bench.count", count, idx, args, kwargs, result)
            return result

        return traced

    # -- counts taken at the span boundaries ---------------------------------

    def _count_tokens(self, idx, args, kwargs, result):
        self.counts["dsl.tokens"] += len(result)

    def _count_fold(self, idx, args, kwargs, result):
        self.counts["semantics.events"] += len(args[0])

    def _count_audit(self, idx, args, kwargs, result):
        self.audits.append((len(args[0]), idx))
        for v in result.violations:
            self.counts[f"compliance.violations.{v.rule}"] += 1

    def _name_rule(self, idx, args, kwargs, result):
        # one span name per rule: compliance.C1 ... compliance.C5
        self.spans[idx] = (f"compliance.{args[0]}",) + self.spans[idx][1:]

    def _count_states(self, idx, args, kwargs, result):
        pa, max_len, universe = args[:3]
        self.enumerations.append((pa, max_len, universe, len(result)))
        self.counts["architecture.states"] += len(result)

    def _count_deduce(self, idx, args, kwargs, result):
        self.counts["logic.conclusions"] += len({r.conclusion for r in result})

    def _count_derive(self, idx, args, kwargs, result):
        self.counts["mapping.activities"] += len(result.activities)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        counters = {
            "semantics.iter_states": self._count_fold,
            "compliance.check_trace": self._count_audit,
            "compliance.check_rule": self._name_rule,
            "architecture.enumerate_states": self._count_states,
            "logic.deduce": self._count_deduce,
            "mapping.derive_architecture": self._count_derive,
        }
        modules = [m for n, m in sys.modules.items() if n == "datactl" or n.startswith("datactl.")]
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"datactl.{layer}"]
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self._wrap(name, fn, counters.get(name))
        tokenize = sys.modules["datactl.dsl"].tokenize
        wrappers[id(tokenize)] = self._counting(tokenize, self._count_tokens)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _counting(self, fn, count):
        """A wrapper that counts without a span of its own."""
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(None, args, kwargs, result)
            return result

        return counted

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus what its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
