"""Spans and counters recorded from outside the program.

The tracer wraps the public functions of each ``bergman`` layer by
replacing module attributes, and wraps the kernel objects those functions
return.  A span records name, layer, start, end, parent span and request
id.  Spans stay in memory; ``summary`` computes self times at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

# The program's modules measured as layers (``catalog`` only builds
# fixtures).  ``startup`` is interpreter-level import work outside them (numpy, the
# standard library, the bergman package init and catalog); ``bench`` is
# the harness's own spans; ``unattributed`` is the job's time outside every
# span, so the self times of all of them add up to the job's wall time by
# construction.
LAYERS = ("cli", "domains", "kernels", "lifting", "oracle", "boundary")
ALL_LAYERS = ("unattributed", "bench", "startup", "jets") + LAYERS

COUNTERS = ("jets.mul.calls", "domains.shadow_contains.rows",
            "kernels.array.rows", "oracle.norm_table.entries")


class NoTracer:
    """Stand-in used for untraced jobs: every hook is a no-op."""

    def span(self, name, layer):
        return nullcontext()

    def request(self, label):
        return nullcontext()


class Tracer:
    def __init__(self, t0: float):
        # span record: [name, layer, start, end, parent index, request id]
        self.spans = [["job", "unattributed", t0, None, -1, 0]]
        self.stack = [0]
        self.counters = dict.fromkeys(COUNTERS, 0)
        # request record: [id, label, start, end, counter deltas]
        self.requests = []
        self.rid = 0

    def open(self, name, layer) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None,
                           self.stack[-1], self.rid])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name, layer):
        idx = self.open(name, layer)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def request(self, label):
        self.rid = len(self.requests) + 1
        before = dict(self.counters)
        rec = [self.rid, label, time.perf_counter(), None, None]
        self.requests.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            rec[4] = {k: v - before[k] for k, v in self.counters.items()}
            self.rid = 0

    def count(self, name, n=1):
        self.counters[name] += n

    def wrap(self, fn, name, layer, on_result=None):
        def traced(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return on_result(out) if on_result is not None else out
        return traced

    def finish(self, t_end: float) -> None:
        self.spans[0][3] = t_end

    # ------------------------------------------------------------------

    def _read(self, clock, records):
        """Records with start and end (fields 2 and 3) read off ``clock``."""
        starts = clock([r[2] for r in records])
        ends = clock([r[3] for r in records])
        return [r[:2] + [float(s), float(e)] + r[4:] for r, s, e in zip(records, starts, ends)]

    def summary(self, clock) -> dict:
        """Self time per layer and per span name, counts per span name,
        the counters, and per-request records, with times read off
        ``clock``."""
        spans = self._read(clock, self.spans)
        child = [0.0] * len(spans)
        for name, layer, s, e, parent, rid in spans:
            if parent >= 0:
                child[parent] += e - s
        layer_ms = dict.fromkeys(ALL_LAYERS, 0.0)
        by_name: dict = {}
        req_self: dict = {}
        for i, (name, layer, s, e, parent, rid) in enumerate(spans):
            own = 1e3 * ((e - s) - child[i])
            layer_ms[layer] = layer_ms.get(layer, 0.0) + own
            rec = by_name.setdefault(name, {"calls": 0, "self_ms": 0.0,
                                            "total_ms": 0.0})
            rec["calls"] += 1
            rec["self_ms"] += own
            rec["total_ms"] += 1e3 * (e - s)
            if rid:
                per = req_self.setdefault(rid, {})
                per[name] = per.get(name, 0.0) + own
                per[layer] = per.get(layer, 0.0) + own
        requests = [{"id": rid, "label": label, "ms": 1e3 * (e - s),
                     "counters": deltas, "self_ms": req_self.get(rid, {})}
                    for rid, label, s, e, deltas in self._read(clock, self.requests)]
        return {"wall_ms": 1e3 * (spans[0][3] - spans[0][2]),
                "layer_self_ms": layer_ms, "spans_by_name": by_name,
                "counters": dict(self.counters), "requests": requests}

    def span_records(self, clock) -> list:
        spans = self._read(clock, self.spans)
        t0 = spans[0][2]
        return [[name, layer, round(1e6 * (s - t0), 3), round(1e6 * (e - t0), 3),
                 parent, rid]
                for name, layer, s, e, parent, rid in spans]


def wrapper_costs(calls: int = 20000):
    """Time what the tracing adds to one call: a span (``Tracer.wrap``) and
    the count that ``Jet.__mul__`` gets.  Returns a function of a clock
    that gives both costs in seconds of that clock."""
    def f(a, b):
        return a

    scratch = Tracer(time.perf_counter())
    spanned = scratch.wrap(f, "calibration", "bench")
    counters = scratch.counters

    def counted(a, b):
        counters["jets.mul.calls"] += 1
        return f(a, b)

    marks = []
    for fn in (f, spanned, counted):
        t = time.perf_counter()
        for _ in range(calls):
            fn(1, 2)
        marks.append((t, time.perf_counter()))

    def costs(clock):
        base, span, count = (float(clock(b) - clock(a)) for a, b in marks)
        return max(span - base, 0.0) / calls, max(count - base, 0.0) / calls

    return costs


# ---------------------------------------------------------------------------
# instrumentation of the program's public surface


def install(tracer: Tracer):
    """Wrap the names ``bergman.cli`` imports, the kernels they return,
    the domain helpers that boundary and oracle call, and ``Jet.__mul__``.
    Returns the function that undoes every patch and the kernel wrapper."""
    import numpy as np

    import bergman.boundary as boundary
    import bergman.cli as cli
    import bergman.domains as domains
    import bergman.jets as jets
    import bergman.kernels as kernels
    import bergman.oracle as oracle

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    class TracedKernel(kernels.Kernel):
        def __call__(self, p, q, q_conjugated=False):
            idx = tracer.open(self.value_span, self.value_layer)
            try:
                v = kernels.Kernel.__call__(self, p, q, q_conjugated)
            finally:
                tracer.close(idx)
            if isinstance(v, np.ndarray):
                tracer.count("kernels.array.rows", v.size)
            return v

        def diagonal(self, p):
            idx = tracer.open("lifting.diagonal", "lifting")
            try:
                return kernels.Kernel.diagonal(self, p)
            finally:
                tracer.close(idx)

    def traced_kernel(K, value_span):
        out = TracedKernel.__new__(TracedKernel)
        out.__dict__.update(K.__dict__)
        out.value_span = value_span
        out.value_layer = value_span.split(".")[0]
        return out

    def on_table(table):
        tracer.count("oracle.norm_table.entries", len(table.entries))
        return table

    def shadow_rows(fn):
        def counted(spec, X):
            idx = tracer.open("domains.shadow_contains", "domains")
            try:
                out = fn(spec, X)
            finally:
                tracer.close(idx)
            tracer.count("domains.shadow_contains.rows", len(out))
            return out
        return counted

    wrapped = {
        "load_spec": ("domains.load_spec", "domains", None),
        "contains": ("domains.contains", "domains", None),
        "sample_interior": ("domains.sample_interior", "domains", None),
        "closed_form_for": ("kernels.closed_form_for", "kernels",
                            lambda K: K if K is None else traced_kernel(K, "kernels.closed")),
        "compose_pipeline": ("lifting.compose_pipeline", "lifting",
                             lambda K: traced_kernel(K, "lifting.value")),
        "get_norm_table": ("oracle.get_norm_table", "oracle", on_table),
        "series_kernel": ("oracle.series_kernel", "oracle", None),
        "reproducing_integral": ("oracle.reproducing_integral", "oracle", None),
        "dirichlet_identity_check": ("oracle.dirichlet_identity_check", "oracle", None),
        "default_path": ("boundary.default_path", "boundary", None),
        "weighted_limit": ("boundary.weighted_limit", "boundary", None),
        "predicted_limit": ("boundary.predicted_limit", "boundary", None),
        "expected_weight": ("boundary.expected_weight", "boundary", None),
        "levi_min_eigenvalue": ("boundary.levi_min_eigenvalue", "boundary", None),
    }
    for attr, (name, layer, on_result) in wrapped.items():
        patch(cli, attr, tracer.wrap(getattr(cli, attr), name, layer, on_result))
    # the same oracle functions, reached through their own module
    for attr in ("get_norm_table", "series_kernel", "reproducing_integral"):
        name, layer, on_result = wrapped[attr]
        patch(oracle, attr, tracer.wrap(getattr(oracle, attr), name, layer, on_result))
    patch(boundary, "contains", tracer.wrap(boundary.contains,
                                            "domains.contains", "domains"))
    patch(boundary, "defining_function",
          tracer.wrap(boundary.defining_function,
                      "domains.defining_function", "domains"))
    patch(domains, "shadow_contains", shadow_rows(domains.shadow_contains))
    patch(oracle, "shadow_contains", shadow_rows(oracle.shadow_contains))

    mul = jets.Jet.__mul__

    def counted_mul(self, other):
        tracer.counters["jets.mul.calls"] += 1
        return mul(self, other)

    patch(jets.Jet, "__mul__", counted_mul)

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore, traced_kernel


def split_imports(layer_ms: dict, stderr: str, scale: float) -> dict:
    """Move the import self time of each bergman layer module, read from
    ``python -X importtime`` output and multiplied by ``scale``, out of
    ``startup`` into its layer."""
    out = dict(layer_ms)
    for layer, ms in parse_importtime(stderr).items():
        moved = min(ms * scale, out["startup"])
        out["startup"] -= moved
        out[layer] += moved
    return out


def parse_importtime(stderr: str) -> dict:
    """Self import time in ms per layer, from ``python -X importtime``
    output.  Modules outside the layers stay in ``startup``."""
    out: dict = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if not module.startswith("bergman."):
            continue
        layer = module.split(".")[1]
        if layer in LAYERS or layer == "jets":
            try:
                out[layer] = out.get(layer, 0.0) + int(parts[0]) / 1e3
            except ValueError:
                continue
    return out
