"""Per-layer tracing of aspeq from outside the package.

install() replaces every public function of every aspeq module with a
wrapper, in each module namespace that holds it (so `aspeq.duality.integrate`
and `aspeq.numerics.integrate` both record), and wraps the value, density
and quantile methods of each curve class. The package source is not
touched; uninstall() puts the originals back.

Each wrapped call records a span (name, start, end, parent index,
operation index) kept in memory until the run writes them out. A span's
self time is its duration minus the time covered by its child spans; for
`numerics.integrate` the integrand calls count as children, so its self
time is the refinement bookkeeping alone. Curve kernel calls and integrand
calls are too many to keep as spans: they are counted and timed in
aggregate instead.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

DOMINANCE_GRID_FUNCTIONS = frozenset(
    {"dominance.first_order_dominates", "dominance.second_order_dominates", "dominance.exponential_chain"}
)


def _spec_arg(args: tuple, kwargs: dict):
    return args[2] if len(args) > 2 else kwargs.get("spec")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[list] = []  # [span index, child time, name]
        self._patched: list[tuple[object, str, object]] = []
        self._in_kernel = False
        self._eg_depth = 0
        self.op = -1
        self._op_integrals: set = set()
        self._op_computed = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.times: defaultdict[str, float] = defaultdict(float)

    def reset(self) -> None:
        """Start a fresh set of aggregates; spans are kept. Cleared in
        place: the installed wrappers hold these containers."""
        for part in (self.self_s, self.calls, self.counts, self.times):
            part.clear()

    # operations -----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_integrals = set()
        self._op_computed = 0

    def end_op(self) -> None:
        self.counts["duality.integrals_distinct"] += len(self._op_integrals)
        self.counts["duality.integrals_computed"] += self._op_computed

    # wrappers -------------------------------------------------------------

    def _wrap_function(self, qual: str, fn):
        stack = self._stack
        spans = self.spans
        tracer = self
        hook = {
            "numerics.integrate": self._integrate_args,
            "numerics.find_root": self._find_root_args,
            "duality.expected_utility": self._integral_hook("eu"),
            "duality.expected_disutility": self._integral_hook("edu"),
        }.get(qual)
        is_eg = qual == "duality.effective_gamma"

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0, qual]
            stack.append(frame)
            if hook is not None:
                args = hook(frame, args, kwargs)
            if is_eg:
                tracer._eg_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if is_eg:
                    tracer._eg_depth -= 1
                stack.pop()
                d = t1 - t0
                spans[idx] = (qual, t0, t1, parent, tracer.op)
                tracer.self_s[qual] += d - frame[1]
                tracer.calls[qual] += 1
                if stack:
                    stack[-1][1] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def _integrate_args(self, frame: list, args: tuple, kwargs: dict) -> tuple:
        f = args[0]
        counts, times = self.counts, self.times

        def integrand(x):
            before = frame[1]
            t0 = perf_counter()
            try:
                return f(x)
            finally:
                d = perf_counter() - t0
                # the integrand interval is one child of integrate, whatever
                # spans it opened inside
                frame[1] = before + d
                times["numerics.integrate.integrand_s"] += d
                counts["numerics.integrate.evals"] += 1

        return (integrand,) + tuple(args[1:])

    def _find_root_args(self, frame: list, args: tuple, kwargs: dict) -> tuple:
        g = args[0]
        counts = self.counts
        counts["numerics.find_root.iterations"] -= 2  # the two bracket ends

        def counted(x):
            counts["numerics.find_root.iterations"] += 1
            return g(x)

        return (counted,) + tuple(args[1:])

    def _integral_hook(self, role: str):
        def hook(frame: list, args: tuple, kwargs: dict) -> tuple:
            self._op_integrals.add((role, args[0], args[1], _spec_arg(args, kwargs)))
            self._op_computed += 1
            if role == "edu" and self._eg_depth:
                self.counts["duality.effective_gamma.edu_calls"] += 1
            return args

        return hook

    def _wrap_method(self, method_name: str, fn):
        tracer = self
        counts, times, stack = self.counts, self.times, self._stack
        is_value = method_name == "value"

        def wrapper(curve, x):
            counts[f"curves.{type(curve).kind}.{method_name}.calls"] += 1
            if is_value and stack and stack[-1][2] in DOMINANCE_GRID_FUNCTIONS:
                counts["dominance.grid_value_calls"] += 1
            if tracer._in_kernel:
                return fn(curve, x)
            tracer._in_kernel = True
            t0 = perf_counter()
            try:
                return fn(curve, x)
            finally:
                times["curves.kernel_s"] += perf_counter() - t0
                tracer._in_kernel = False

        wrapper.__wrapped__ = fn
        return wrapper

    # install --------------------------------------------------------------

    def install(self) -> None:
        import aspeq
        from aspeq.curves import CURVE_KINDS

        modules = [aspeq] + [
            importlib.import_module(f"aspeq.{m.name}") for m in pkgutil.iter_modules(aspeq.__path__)
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                if not getattr(value, "__module__", "").startswith("aspeq."):
                    continue
                w = wrappers.get(id(value))
                if w is None:
                    qual = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    w = wrappers[id(value)] = self._wrap_function(qual, value)
                self._patched.append((mod, name, value))
                setattr(mod, name, w)
        for cls in CURVE_KINDS.values():
            for method in ("value", "density", "quantile"):
                fn = cls.__dict__.get(method)
                if fn is not None:
                    self._patched.append((cls, method, fn))
                    setattr(cls, method, self._wrap_method(method, fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates since the last reset, as plain numbers."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "times": dict(self.times),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per child process of a round)."""
    out = {"self_s": defaultdict(float), "calls": Counter(), "counts": Counter(), "times": defaultdict(float)}
    for s in summaries:
        for part in out:
            for k, v in s[part].items():
                out[part][k] += v
    return {k: dict(v) for k, v in out.items()}
