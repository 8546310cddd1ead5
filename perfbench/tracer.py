"""In-memory span tracer that wraps dcekit's public functions from outside.

Each wrapped function records one span per call: its name, start, end, the
span that caused it, the benchmark pass it ran in, and whether it raised.
A call made on a simkit worker thread, whose own stack is empty, is parented
to the innermost open span of the thread that started the benchmark: the
benchmark has a single caller, so that span is the one that caused it.

Functions are wrapped at the module attribute their callers resolve them
through (``simkit.ostbc_detect`` for ``mc_ser``, ``protocol.validate`` for the
single-round runs, ``cli.load_config`` for the CLI, ...), so no dcekit source
changes.  Private helpers are never wrapped: the batched engine's time reads
as the self time of ``simkit.mc_*`` until it gets a public entry point.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs to wrap; the metric name is taken from the
# wrapped function's defining module, e.g. protocol.validate -> model.validate.
SITES = (
    ("cli", "main"),
    ("cli", "load_config"),
    ("simkit", "mc_ser"),
    ("simkit", "mc_nmse"),
    ("simkit", "ostbc_detect"),
    ("simkit", "ostbc_encode"),
    ("allocator", "solve_nonreciprocal"),
    ("allocator", "solve_reciprocal"),
    ("allocator", "solve_general"),
    ("allocator", "optimize_rank"),
    ("protocol", "run_reciprocal"),
    ("protocol", "run_nonreciprocal"),
    ("protocol", "dft_semiunitary"),
    ("protocol", "forward_pilot"),
    ("protocol", "validate"),
    ("protocol", "allocation_violations"),
    ("protocol", "effective_forward_noise_var"),
    ("model", "draw_channels"),
    ("model", "random_gaussian"),
)

# Span tuple layout.
_SID, _NAME, _T0, _T1, _PARENT, _PASS, _FAILED = range(7)


def _metric_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans while installed; :meth:`uninstall` restores every attribute."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self.pass_index = 0
        self.solves: list[tuple[int, int, bool]] = []  # (pass, iterations, converged)
        self.infeasible: list[int] = []  # pass of each InfeasibleGamma raised
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else -1

    def wrap(self, module, attr: str, observe=None) -> None:
        fn = getattr(module, attr)
        name_id = len(self.names)
        self.names.append(_metric_name(fn))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            failed = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
            except Exception as exc:
                if observe is not None:
                    observe(None, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                # One tuple per span keeps appends from worker threads atomic.
                tracer.spans.append((sid, name_id, t0, t1, parent, tracer.pass_index, failed))
            if observe is not None:
                observe(out, None)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def install(dk) -> Tracer:
    """Wrap every site in :data:`SITES` plus every public analytics function.

    ``dk`` maps dcekit module names to the imported modules.  The GP solver's
    public outputs are observed too: iterations and convergence from each
    :class:`SolveReport`, and each ``InfeasibleGamma`` it raises.
    """
    tracer = Tracer()
    infeasible_type = dk["allocator"].InfeasibleGamma

    def observe_gp(report, exc):
        if exc is None:
            tracer.solves.append((tracer.pass_index, int(report.iterations), bool(report.converged)))
        elif isinstance(exc, infeasible_type):
            tracer.infeasible.append(tracer.pass_index)

    for mod_name, attr in SITES:
        tracer.wrap(dk[mod_name], attr, observe_gp if attr == "solve_nonreciprocal" else None)
    analytics = dk["analytics"]
    for attr in analytics.__all__:
        fn = getattr(analytics, attr)
        if getattr(fn, "__module__", "") == analytics.__name__ and not isinstance(fn, type):
            tracer.wrap(analytics, attr)
    return tracer


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer statistics: ``{metric: [value for each pass]}``.

    ``calls`` counts every call.  ``busy_s`` sums the spans of a function (or
    of a whole module, for ``<module>.busy_s``) that have no ancestor of the
    same function (module), so recursion and nesting are not counted twice.
    ``self_s`` is a span's duration minus the union of its children's
    intervals, clipped to the span.  ``failed`` counts calls that raised.
    """
    spans = sorted(tracer.spans)  # by span id: a parent is opened before its children
    names = tracer.names
    mod_index: dict[str, int] = {}
    modules = [n.split(".", 1)[0] for n in names]
    mod_bit = [1 << mod_index.setdefault(m, len(mod_index)) for m in modules]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[_PARENT] >= 0:
            children[s[_PARENT]].append((s[_T0], s[_T1]))

    stats: dict[str, list[float]] = defaultdict(lambda: [0.0] * passes)
    # Bit masks of the functions / modules open above each span, by span id.
    n_ids = spans[-1][_SID] + 1 if spans else 0
    anc_fn = [0] * n_ids
    anc_mod = [0] * n_ids
    for sid, nid, t0, t1, parent, p, failed in spans:
        up_fn = up_mod = 0
        if parent >= 0:
            up_fn, up_mod = anc_fn[parent], anc_mod[parent]
        anc_fn[sid] = up_fn | (1 << nid)
        anc_mod[sid] = up_mod | mod_bit[nid]
        name, mod, dur = names[nid], modules[nid], t1 - t0
        kids = children.get(sid)
        child = 0.0
        if kids:
            child = _union_length([(max(a, t0), min(b, t1)) for a, b in kids if b > t0 and a < t1])
        stats[f"{name}.calls"][p] += 1
        stats[f"{mod}.calls"][p] += 1
        stats[f"{name}.self_s"][p] += dur - child
        stats["trace.self_sum_s"][p] += dur - child
        if failed:
            stats[f"{name}.failed"][p] += 1
        if not up_fn & (1 << nid):
            stats[f"{name}.busy_s"][p] += dur
        if not up_mod & mod_bit[nid]:
            stats[f"{mod}.busy_s"][p] += dur
    for p, iterations, converged in tracer.solves:
        stats["allocator.gp_outer_iters"][p] += iterations
        stats["allocator.gp_converged"][p] += int(converged)
        stats["allocator.gp_solves"][p] += 1
    for p in tracer.infeasible:
        stats["allocator.infeasible"][p] += 1
    return dict(stats)
