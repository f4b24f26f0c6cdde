"""Per-layer tracing of a squint run, from outside the library.

``Tracer.install`` replaces public functions of the squint modules with
timing wrappers at run time and ``uninstall`` puts the originals back; no
file under ``src/`` is edited.  This works because the harness calls the
layers through module attributes (``ex.*``, ``ci.*``, ``rb.*``), the experts
module calls numerics through names bound in ``squint.experts``, and
``project_batch`` is a class attribute.

Every wrapped call pushes a frame on one stack, so a call's self time is its
duration minus the time of the wrapped calls it made.  Coarse calls (one or
a few per round) also record a span: name, start, end, parent span, run and
round index.  Fine calls (the scalar kernels and the per-subset audits, up
to hundreds per round) only add to per-name totals, which keeps the wrapper
overhead bounded.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import time

import squint.component_iprod as ci
import squint.experts as ex
import squint.harness_cli as hc
import squint.numerics as nm
import squint.polytopes as pt
import squint.regret_bounds as rb

RUN = "harness_cli.run"

# Every function the four workloads reach, as
# (owner, attribute, traced name, records a span, counter fed by len(args[i])).
TARGETS = [
    (hc, "generate_stream", "harness_cli.stream", True, None),
    (ex, "weights_for_prior", "experts.weights", True, None),
    (ex, "iprod_weights_grid", "experts.weights", True, ("experts.iprod.rows_summed", 0)),
    (ex, "update", "experts.update", True, None),
    (ex, "potential", "experts.potential", True, None),
    (ex, "log_exp_integral", "numerics.kernel", False, None),
    (ex, "log_eta_exp_integral", "numerics.kernel", False, None),
    (ex, "integrate_adaptive_batch", "numerics.quad", True, None),
    (nm, "integrate_adaptive_batch", "numerics.quad", True, None),
    (rb, "aggregate_subset", "regret_bounds.aggregate", False, None),
    (rb, "bound_theorem2", "regret_bounds.bound", False, None),
    (rb, "bound_theorem3", "regret_bounds.bound", False, None),
    (rb, "bound_theorem4", "regret_bounds.bound", False, None),
    (pt.DagPaths, "project_batch", "polytopes.project", True, ("polytopes.project.rows", 1)),
    (ci, "play", "component_iprod.play", True, None),
    (ci, "observe", "component_iprod.observe", True, None),
    (ci, "comparator_stats", "component_iprod.comparator", False, None),
    (ci, "potential", "component_iprod.potential", True, None),
]

# the quadrature's integrand is wrapped too, to count abscissas x components
QUAD = "numerics.quad"
QUAD_EVALS = "numerics.quad.evals"

# names whose return ends a round, for the round index of later spans
ROUND_ENDS = {"experts.update", "component_iprod.observe"}

SPAN_FIELDS = ["id", "name", "start", "end", "parent", "run", "round"]


class Tracer:
    """Span recorder plus per-name call counts, total and self times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {QUAD_EVALS: 0}
        for target in TARGETS:
            if target[4] is not None:
                self.counts[target[4][0]] = 0
        self.run = 0
        self.round = 0
        # frame = [time spent in wrapped callees, id of the nearest span]
        self._stack = [[0.0, None]]
        self._next_id = 0
        self._saved: list[tuple] = []

    def reset(self, run: int) -> None:
        """Start a new run: clear the totals, keep the spans recorded so far."""
        self.run = run
        self.round = 0
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        for key in self.counts:
            self.counts[key] = 0

    def wrap(self, name: str, fn, span: bool, hook=None):
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        ends_round = name in ROUND_ENDS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            parent = stack[-1][1]
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                calls[name] = calls.get(name, 0) + 1
                total_s[name] = total_s.get(name, 0.0) + dt
                self_s[name] = self_s.get(name, 0.0) + dt - frame[0]
                if span:
                    spans.append((sid, name, t0, t1, parent, tracer.run, tracer.round))
                if ends_round:
                    tracer.round += 1

        return wrapper

    def _hook(self, name: str, row_counter):
        """Pre-call hook that feeds a work counter, or None."""
        counts = self.counts
        if name == QUAD:
            def count_evals(args, kwargs):
                f = args[0]

                def counted(x):
                    y = f(x)
                    counts[QUAD_EVALS] += y.size
                    return y

                return (counted,) + tuple(args[1:]), kwargs
            return count_evals
        if row_counter is not None:
            key, index = row_counter

            def count_rows(args, kwargs):
                counts[key] += len(args[index])
                return args, kwargs
            return count_rows
        return None

    def install(self) -> None:
        """Swap every target for its wrapper; undo with ``uninstall``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, span, row_counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, span, self._hook(name, row_counter)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def traced_run(self, fn, *args):
        """Call fn(*args) inside the root span of one run; returns its result."""
        return self.wrap(RUN, fn, True)(*args)

    def span_records(self) -> dict:
        return {"fields": SPAN_FIELDS, "spans": [list(s) for s in self.spans]}
