"""Per-layer tracing from outside the program.

:class:`Tracer` swaps the public functions of each heaviforge module for
timing wrappers while it is installed, and restores every original on exit.
No file under ``src/`` changes.  Modules import each other's functions by
name, and ``cli`` binds evaluators into its dispatch table at import time, so
a function is replaced in every module namespace (and every module-level
dict) that holds it.

Accounting: each wrapped call is a frame on a stack.  A frame's *self* time
is its duration minus the time of the wrapped calls made inside it, which is
the span-based definition of a layer's self time.  A wrapper costs time of
its own, partly between the clock readings it takes (which would count as
the call's own time) and partly outside them (its frame, the clock calls and
the bookkeeping, which would land in the caller's self time).  Both parts
are measured per kind of wrapper around an empty function, on installation
and then again every CALIBRATION_EVERY_S between commands (the machine's
speed drifts during a run), and the medians are taken out when the metrics
are read: ``calls`` times the inside part from a layer's own time, and each
direct child call's outside part from its caller's self time.  So self
times and per-call times approximate the untraced program's, and a change
that only cuts a call count does not look like a cut in the caller's self
time.  The sum is reported as ``trace.*_overhead_ns``.  The hottest per-element
calls (closed-form evaluators, integrands, oracles, membership) are leaves
that keep only counters and aggregate time; per-row primes calls and
composed-evaluator calls are frames without spans; every other call also
records a span ``(request id, key, start, end, parent span)`` whose request
id is the index of the benchmark command that caused it.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import defaultdict

MODULES = ("cli", "stepfun", "quadrature", "piecewise", "primes", "setexpr", "xisets")

# layer key -> (module, public names)
LAYERS = {
    "cli.main": ("cli", ("main",)),
    "primes.sigma0": ("primes", ("sigma0_analytic",)),
    "primes.fes": ("primes", ("fes",)),
    "primes.pi": ("primes", ("pi_analytic",)),
    "primes.oracle": ("primes", ("sigma0_oracle", "pi_sieve")),
    "stepfun": ("stepfun", ("eval_f", "eval_c", "eval_u", "eval_q", "eval_rt", "eval_step", "eval_delta")),
    "quadrature": ("quadrature", ("integrate_half_line", "integrate_tan_interval", "integrate_interval")),
    "piecewise.compose": ("piecewise", ("compose",)),
    "setexpr.evaluate": ("setexpr", ("evaluate",)),
    "xisets.op": ("xisets", ("xi_union", "xi_intersection", "xi_difference", "eval_chain", "grandi_demo")),
    "xisets.membership": ("xisets", ("membership",)),
}
# per-element calls: counters and aggregate time, no span
LEAF = {"primes.oracle", "xisets.membership"}  # (plus closed-form evaluators and integrands)
NO_SPAN = {"primes.sigma0", "primes.fes", "primes.pi", "piecewise.eval"}
PAIRWISE = {"xi_union", "xi_intersection", "xi_difference"}
CALIBRATION_CALLS = 5_000  # per sample, for each kind of wrapper
CALIBRATION_EVERY_S = 0.5
KINDS = ("leaf", "closed", "frame")


class Stat:
    __slots__ = ("calls", "total", "self", "closed_calls", "leaf_calls", "frame_calls", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        # wrapped calls made directly inside, by kind of wrapper
        self.closed_calls = self.leaf_calls = self.frame_calls = 0
        self.extra = defaultdict(float)


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.stats``."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []
        self.request_id = -1
        # frame: [child time, closed-form calls inside, span index or -1,
        #         other leaf calls inside, frame calls inside]
        self._stack = [[0.0, 0, -1, 0, 0]]
        self._swaps: list[tuple] = []
        # per kind of wrapper: (inside, outside) wrapper time of one call
        self._samples: dict[str, list[tuple[float, float]]] = {kind: [] for kind in KINDS}
        self._calibrated_at = -CALIBRATION_EVERY_S

    # -- request scope --------------------------------------------------------

    def begin(self, request_id: int) -> float:
        self.request_id = request_id
        now = time.perf_counter()
        if now - self._calibrated_at >= CALIBRATION_EVERY_S:
            self._calibrate()
            now = time.perf_counter()
        return now

    def end(self, start: float) -> None:
        self.spans.append((self.request_id, "command", start, time.perf_counter(), -1))

    # -- wrappers ---------------------------------------------------------------

    def _frame_call(self, key, fn, args, kwargs, after=None):
        stat, stack, clock = self.stats[key], self._stack, time.perf_counter
        span = -1
        if key not in NO_SPAN:
            span = len(self.spans)
            self.spans.append(None)
        frame = [0.0, 0, span, 0, 0]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            parent = stack[-1]
            parent[0] += elapsed
            parent[4] += 1
            stat.calls += 1
            stat.total += elapsed
            stat.self += elapsed - frame[0]
            stat.closed_calls += frame[1]
            stat.leaf_calls += frame[3]
            stat.frame_calls += frame[4]
            if span >= 0:
                self.spans[span] = (self.request_id, key, start, start + elapsed, stack[-1][2])
        if after is not None:
            after(stat, args, kwargs, result)
        return result

    def _wrap_frame(self, key, fn, after=None):
        def wrapper(*args, **kwargs):
            return self._frame_call(key, fn, args, kwargs, after)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, key, fn, closed_form=False):
        """Counter and aggregate time only: no frame, no span."""
        stat, stack, clock = self.stats[key], self._stack, time.perf_counter
        slot = 1 if closed_form else 3  # the frame's counter for this kind

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                top = stack[-1]
                top[0] += elapsed
                top[slot] += 1
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_stepfun(self, fn):
        from heaviforge.stepfun import Backend

        quad = Backend.QUADRATURE
        closed = self._wrap_leaf("stepfun.closed", fn, closed_form=True)

        def wrapper(*args, **kwargs):
            if quad in args or kwargs.get("backend") is quad:
                return self._frame_call("stepfun.quad", fn, args, kwargs)
            return closed(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_integrate(self, fn):
        """Wraps the integrand handed to ``integrate_*`` too: its invocations
        are the refinement waves, its argument sizes the points evaluated."""
        from heaviforge.quadrature import QuadratureError

        signature = inspect.signature(fn)
        stat = self.stats["quadrature"]

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tol = bound.arguments["tol"]
            integrand = self.stats["stepfun.integrand"]
            waves_before = integrand.calls
            bound.arguments["integrand"] = self._wrap_integrand(bound.arguments["integrand"])
            try:
                result = self._frame_call("quadrature", fn, bound.args, bound.kwargs)
            except QuadratureError:
                stat.extra["failures"] += 1
                raise
            waves = integrand.calls - waves_before
            stat.extra["evaluations"] += result.evaluations
            stat.extra["refined"] += waves > 1
            stat.extra["err_to_tol_max"] = max(stat.extra["err_to_tol_max"], result.abs_error_estimate / tol)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_integrand(self, integrand):
        stat, stack, clock = self.stats["stepfun.integrand"], self._stack, time.perf_counter

        def wrapped(t):
            start = clock()
            try:
                return integrand(t)
            finally:
                elapsed = clock() - start
                top = stack[-1]
                top[0] += elapsed
                top[3] += 1
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed
                stat.extra["points"] += getattr(t, "size", 1)
        return wrapped

    def _wrap_compose(self, fn):
        def wrapper(*args, **kwargs):
            return self._wrap_frame("piecewise.eval", self._frame_call("piecewise.compose", fn, args, kwargs))
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _count_pairs(stat, args, _kwargs, result):
        stat.extra["components_built"] += args[0].xi_class * args[1].xi_class
        stat.extra["components_kept"] += result.xi_class

    def _make_wrapper(self, key, name, fn):
        if key == "stepfun":
            return self._wrap_stepfun(fn)
        if key == "quadrature":
            return self._wrap_integrate(fn)
        if key == "piecewise.compose":
            return self._wrap_compose(fn)
        if key in LEAF:
            return self._wrap_leaf(key, fn)
        return self._wrap_frame(key, fn, self._count_pairs if name in PAIRWISE else None)

    # -- install / restore ---------------------------------------------------------

    def _calibrate(self) -> None:
        """Takes one sample per kind of wrapper around an empty function, in
        loops of calls: ``whole`` through the wrapper, ``bare`` without it,
        and an empty ``loop``.  The inside part is what the wrapper records
        minus the bare call; the outside part is the rest of ``whole``."""
        def noop(*_args, **_kwargs):
            return None

        def loop_time(fn):
            start = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn(0.5, None)
            return time.perf_counter() - start

        def empty_loop():
            start = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                pass
            return time.perf_counter() - start

        makers = {
            "leaf": (lambda t: t._wrap_leaf("leaf", noop), "leaf"),
            "closed": (lambda t: t._wrap_stepfun(noop), "stepfun.closed"),
            "frame": (lambda t: t._wrap_frame("primes.sigma0", noop), "primes.sigma0"),
        }
        for kind, (make, key) in makers.items():
            probe = Tracer()
            wrapper = make(probe)
            whole = loop_time(wrapper)
            recorded = probe.stats[key].total
            loop = empty_loop()
            bare = loop_time(noop) - loop
            self._samples[kind].append(((recorded - bare) / CALIBRATION_CALLS,
                                        (whole - loop - recorded) / CALIBRATION_CALLS))
        self._calibrated_at = time.perf_counter()

    def overhead_s(self) -> dict[str, tuple[float, float]]:
        """Per kind of wrapper, the median (inside, outside) time of one call."""
        return {kind: (statistics.median(i for i, _ in samples), statistics.median(o for _, o in samples))
                if samples else (0.0, 0.0) for kind, samples in self._samples.items()}

    def corrected(self, key: str) -> tuple[float, float]:
        """A layer's (total, self) time with the wrappers' own time taken out."""
        stat, overhead = self.stats.get(key) or Stat(), self.overhead_s()
        kind = "closed" if key == "stepfun.closed" else "leaf" if key in LEAF | {"stepfun.integrand"} else "frame"
        own = stat.calls * overhead[kind][0]
        children = (stat.closed_calls * overhead["closed"][1] + stat.leaf_calls * overhead["leaf"][1]
                    + stat.frame_calls * overhead["frame"][1])
        return stat.total - own, stat.self - own - children

    def __enter__(self):
        for _ in range(5):
            self._calibrate()
        modules = [importlib.import_module("heaviforge")]
        modules += [importlib.import_module(f"heaviforge.{m}") for m in MODULES]
        try:
            for key, (module, names) in LAYERS.items():
                home = importlib.import_module(f"heaviforge.{module}")
                for name in names:
                    original = getattr(home, name)
                    self._swap_everywhere(modules, original, self._make_wrapper(key, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def _swap_everywhere(self, modules, original, wrapper):
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._swaps.append((namespace, attr, original))
                    namespace[attr] = wrapper
                elif type(value) is dict and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._swaps.append((value, k, original))
                            value[k] = wrapper

    def _restore(self):
        while self._swaps:
            container, key, original = self._swaps.pop()
            container[key] = original

    def __exit__(self, *exc):
        self._restore()
        return False

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, rows: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  ``rows`` is the
        number of primes rows the traced commands produced."""
        def stat(key):
            return self.stats.get(key) or Stat()

        def total(key):
            return self.corrected(key)[0]

        def own(key):
            return self.corrected(key)[1]

        def ratio(a, b):
            return a / b if b else 0.0

        cli, quad, integrand = stat("cli.main"), stat("quadrature"), stat("stepfun.integrand")
        closed, piece = stat("stepfun.closed"), stat("piecewise.eval")
        xop, sexpr = stat("xisets.op"), stat("setexpr.evaluate")
        primes_keys = ("primes.sigma0", "primes.fes", "primes.pi")
        m = {
            "cli.commands": (cli.calls, "count"),
            "cli.self_ms_per_cmd": (1e3 * ratio(own("cli.main"), cli.calls), "ms"),
            "primes.stepfun_calls_per_row": (ratio(sum(stat(k).closed_calls for k in primes_keys), rows), "count/row"),
            "primes.oracle.self_s": (own("primes.oracle"), "s"),
        }
        for key in primes_keys:
            m[f"{key}.calls"] = (stat(key).calls, "count")
            m[f"{key}.self_s"] = (own(key), "s")
        m.update({
            "stepfun.closed.calls": (closed.calls, "count"),
            "stepfun.closed.ns_per_call": (1e9 * ratio(total("stepfun.closed"), closed.calls), "ns"),
            "stepfun.quad.calls": (stat("stepfun.quad").calls, "count"),
            "stepfun.quad.self_s": (own("stepfun.quad"), "s"),
            "stepfun.integrand.calls": (integrand.calls, "count"),
            "stepfun.integrand.points": (integrand.extra["points"], "count"),
            "stepfun.integrand.s": (total("stepfun.integrand"), "s"),
            "quadrature.calls": (quad.calls, "count"),
            "quadrature.self_s": (own("quadrature"), "s"),
            "quadrature.ms_per_call": (1e3 * ratio(total("quadrature"), quad.calls), "ms"),
            "quadrature.evals_per_call": (ratio(quad.extra["evaluations"], quad.calls), "count"),
            "quadrature.waves_per_call": (ratio(integrand.calls, quad.calls), "count"),
            "quadrature.refined_frac": (ratio(quad.extra["refined"], quad.calls), "fraction"),
            "quadrature.err_to_tol_max": (quad.extra["err_to_tol_max"], "ratio"),
            "quadrature.failures": (quad.extra["failures"], "count"),
            "piecewise.evals": (piece.calls, "count"),
            "piecewise.self_s": (own("piecewise.eval"), "s"),
            "piecewise.gates_per_eval": (ratio(piece.closed_calls, piece.calls), "count"),
            "setexpr.calls": (sexpr.calls, "count"),
            "setexpr.self_s": (own("setexpr.evaluate"), "s"),
            "xisets.op.calls": (xop.calls, "count"),
            "xisets.op.self_s": (own("xisets.op"), "s"),
            "xisets.components_built": (xop.extra["components_built"], "count"),
            "xisets.dedup_ratio": (ratio(xop.extra["components_kept"], xop.extra["components_built"]), "ratio"),
            "xisets.membership.calls": (stat("xisets.membership").calls, "count"),
            "xisets.membership.self_s": (own("xisets.membership"), "s"),
        })
        for kind, parts in self.overhead_s().items():
            m[f"trace.{kind}_overhead_ns"] = (1e9 * sum(parts), "ns")
        return m

