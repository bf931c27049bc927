"""The four benchmark workloads.

Each workload has three phases, run in one fresh interpreter:

* ``setup``    everything a user pays before the first evaluation: spec
               parsing, input files, kernel construction, norm tables;
* ``evaluate`` the timed closed loop of unit requests, one caller;
* ``check``    untimed: every output against an independent route at the
               repository's fixed gates.

Inputs come only from the benchmark's own numpy ``Generator`` seeded with
the workload seed, and reach the program as files or arguments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

import bergman.boundary as boundary
import bergman.cli as cli
import bergman.domains as domains
import bergman.kernels as kernels
import bergman.lifting as lifting
import bergman.oracle as oracle

# fixed gates of the repository (ROADMAP, correctness aim)
GATE_LIFT_CLOSED = 1e-10
GATE_SYMMETRY = 1e-13
GATE_SERIES = 1e-3
GATE_TAIL = 1e-4
GATE_REPRODUCING = 1e-3
GATE_BOUNDARY = 1e-2

ELLIPSOID = "GeneralizedComplexEllipsoid"
CHAIN_P, CHAIN_P2, CHAIN_P3 = 2.0, 1.5, 2.5


# ---------------------------------------------------------------------------
# domain families: JSON wire format plus an independent membership test on
# squared moduli X (shape (n, dim)), written from the defining inequalities


def _spec(exponents, n_star, lifts):
    return {"base": {"kind": ELLIPSOID, "exponents": list(exponents),
                     "n_star": n_star, "m_passive": len(exponents) - n_star},
            "lifts": [{"kind": k, "weights": list(w), "w_dim": d}
                      for k, w, d in lifts]}


def _chain(stage):
    steps = [("U", (1.0 / CHAIN_P,), 1), ("V", (0.0, 1.0), 1),
             ("U", (0.0, 0.0, CHAIN_P2), 1), ("U", (CHAIN_P3 / CHAIN_P, 0.0, 0.0, 0.0), 1),
             ("V", (0.0, 0.0, 0.0, 0.0, 1.0), 1)]
    spec = _spec((CHAIN_P,), 1, steps[:stage - 1])

    def inside(X):
        a = X[:, 0] ** CHAIN_P
        ok = np.ones(len(X), dtype=bool)
        if stage >= 5:
            s5 = X[:, 4] * (np.exp(X[:, 5]) if stage >= 6 else 1.0)
            ok &= s5 < 1.0
            a = a / np.where(ok, 1.0 - s5, 1.0) ** CHAIN_P3
        b = X[:, 1]
        if stage == 3:
            b = b * np.exp(X[:, 2])
        elif stage >= 4:
            ok &= X[:, 3] < 1.0
            b = b * np.exp(X[:, 2] / np.where(ok, 1.0 - X[:, 3], 1.0) ** CHAIN_P2)
        return ok & (a + b < 1.0)

    return spec, inside


def _ball_disk_lift(m):
    def inside(X):
        zp = X[:, 1:1 + m].sum(axis=1)
        w = X[:, -1]
        return (w < 1.0) & (X[:, 0] + zp + w < 1.0 + w * zp)
    return _spec((1.0,) * (1 + m), 1, [("U", (1.0,), 1)]), inside


def _ball_exp_lift(m, gamma):
    def inside(X):
        return np.exp(gamma * X[:, -1]) * X[:, 0] + X[:, 1:1 + m].sum(axis=1) < 1.0
    return _spec((1.0,) * (1 + m), 1, [("V", (gamma,), 1)]), inside


FAMILIES = {f"stage{k}": _chain(k) for k in range(2, 7)}
FAMILIES.update({
    "ball2": (_spec((1.0, 1.0), 2, []), lambda X: X[:, 0] + X[:, 1] < 1.0),
    "egg_inflated_p2": (_spec((2.0,), 1, [("U", (0.5,), 2)]),
                        lambda X: X[:, 0] ** 2 + X[:, 1] + X[:, 2] < 1.0),
    "ball_disk_lift_11": _ball_disk_lift(1),
    "ball_disk_lift_12": _ball_disk_lift(2),
})
for _m in (1, 2):
    for _g in (0.5, 1.0, 2.0):
        FAMILIES[f"ball_exp_lift_1{_m}_g{_g}"] = _ball_exp_lift(_m, _g)
FAMILIES["ball_exp_lift_11"] = FAMILIES["ball_exp_lift_11_g1.0"]


def dim_of(family):
    spec = FAMILIES[family][0]
    return len(spec["base"]["exponents"]) + sum(s["w_dim"] for s in spec["lifts"])


def polydisk_points(rng, n, dim, radius):
    """n points of the polydisk of the given radius, Latin-hypercube
    stratified in |z_j|^2 and arg z_j so that every seed spreads its points
    over the radial range the same way (costs that depend on |z| stay
    comparable across seeds)."""
    cols = 2 * dim
    strata = np.stack([rng.permutation(n) for _ in range(cols)], axis=1)
    u = (strata + rng.random((n, cols))) / n
    return radius * np.sqrt(u[:, :dim]) * np.exp(2j * math.pi * u[:, dim:])


def interior_points(rng, family, n, radius):
    pts = polydisk_points(rng, n, dim_of(family), radius)
    if not np.all(FAMILIES[family][1](np.abs(pts) ** 2)):
        raise RuntimeError(f"benchmark input left {family}: radius {radius} too large")
    return pts


def _wire_point(p):
    return [[float(c.real), float(c.imag)] for c in p]


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def _extra_interp():
    """About a millisecond of interpreter work."""
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    return s


class Context:
    """What a workload needs from the job: seed, scratch directory, tracer
    and the record it fills in."""

    def __init__(self, seed, workdir, tracer, extra=None, extra_only=False):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.traced_kernel = None    # set by a traced job
        self.latency = []        # (class label, start, end) of every request
        self.values = 0          # values delivered by the evaluation phase
        self.attempted = 0
        self.failures = []       # one reason per failed operation
        self.info = {}           # workload facts printed beside the metrics
        self.clock = None        # the job's reference clock, set before the checks
        # self-test of the clock: extra work inside every request
        self.extra_only = extra_only
        self.extra_units = 0
        if extra:
            kind, n = extra.split(":")
            self.extra_units = int(n)
            if kind == "numpy":
                big = np.full(1 << 20, 0.5 + 0.5j)     # 16 MB
                self.extra_unit = lambda: float(np.exp(big).real.sum())
            else:
                self.extra_unit = _extra_interp

    def rng(self, *stream):
        return np.random.default_rng([self.seed, *stream])

    def path(self, name):
        return os.path.join(self.workdir, name)

    def elapsed(self, a, b):
        """Seconds at the reference speed between two perf_counter readings."""
        return float(self.clock(b) - self.clock(a))

    def fail(self, reason):
        self.failures.append(reason)

    def call(self, label, fn, *args, **kwargs):
        """One timed closed-loop request; returns what ``fn`` returned, or
        the exception it raised (the program's failure is a result here)."""
        t = time.perf_counter()
        with self.tracer.request(label):
            out = None
            if not self.extra_only:
                try:
                    out = fn(*args, **kwargs)
                except Exception as e:
                    out = e
            for _ in range(self.extra_units):
                self.extra_unit()
        self.latency.append((label, t, time.perf_counter()))
        return out

    def run_cli(self, label, argv):
        """One request through ``bergman.cli.main``; returns (exit code or
        exception, captured stdout, captured stderr)."""
        out, err = io.StringIO(), io.StringIO()

        def main():
            with (self.tracer.span("cli.main", "cli"), contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                return cli.main(argv)

        rc = self.call(label, main)
        return rc, out.getvalue(), err.getvalue()


def _scaled(factor, make):
    def build(*args, **kwargs):
        K = make(*args, **kwargs)
        return None if K is None else K.scaled(factor)
    return build


# ---------------------------------------------------------------------------


class EvalPanel:
    """``bergman eval`` through ``cli.main`` on panels of 1, 32 and 512
    pairs; the latency metric is over one-pair stage-3 lifted requests."""

    name = "eval_panel"
    latency_label = "stage3.lifted.n1"
    latency_desc = "one-pair `eval --mode lifted` on chain stage 3"
    values_desc = ops_desc = "kernel values"
    LIFTED = ("stage2", "stage3", "stage4", "stage5", "stage6",
              "egg_inflated_p2", "ball_disk_lift_11", "ball_exp_lift_11")
    CLOSED = ("stage2", "stage3", "egg_inflated_p2", "ball_disk_lift_11",
              "ball_exp_lift_11")
    PANELS = (512, 32, 32)
    ONE_PAIR_PER_PANEL = 4
    RADIUS = 0.45
    # stages without a closed form: the second 32-pair panel sits near the
    # origin so its first pairs can be checked against the series oracle
    SERIES_CAPS = {"stage4": 20, "stage5": 14, "stage6": 10}
    NEAR_RADIUS = 0.2
    SERIES_PAIRS = 4

    def __init__(self, ctx):
        self.ctx = ctx

    def perturb(self):
        cli.compose_pipeline = _scaled(1.0 + 1e-6, cli.compose_pipeline)
        cli.closed_form_for = _scaled(1.0 + 1e-6, cli.closed_form_for)

    def prepare(self):
        ctx = self.ctx
        classes = [(f, "lifted") for f in self.LIFTED] + [(f, "closed") for f in self.CLOSED]
        self.requests = []
        one_pair = []
        for f in {f for f, _ in classes}:
            write_json(ctx.path(f"{f}.json"), FAMILIES[f][0])
        for ci, (fam, mode) in enumerate(classes):
            for pi, size in enumerate(self.PANELS):
                near = fam in self.SERIES_CAPS and pi == 2
                self.requests.append(self._request(
                    ci, pi, fam, mode, size, self.NEAR_RADIUS if near else self.RADIUS))
        for k in range(len(self.requests) * self.ONE_PAIR_PER_PANEL):
            one_pair.append(self._request(len(classes), k, "stage3", "lifted", 1, self.RADIUS))
        # spread the one-pair requests evenly between the panels
        order = []
        step = self.ONE_PAIR_PER_PANEL
        for i, req in enumerate(self.requests):
            order.append(req)
            order.extend(one_pair[i * step:(i + 1) * step])
        self.requests = order

    def setup(self):
        """Nothing: every ``eval`` invocation parses its own inputs."""

    def _request(self, ci, pi, fam, mode, size, radius):
        rng = self.ctx.rng(1, ci, pi)
        P = interior_points(rng, fam, size, radius)
        Q = interior_points(rng, fam, size, radius)
        stem = f"{fam}.{mode}.n{size}.{ci}.{pi}"
        write_json(self.ctx.path(stem + ".points.json"),
                   [{"p": _wire_point(p), "q": _wire_point(q)} for p, q in zip(P, Q)])
        return {"fam": fam, "mode": mode, "size": size, "P": P, "Q": Q,
                "near": radius == self.NEAR_RADIUS, "stem": stem,
                "label": f"{fam}.{mode}.n{size}"}

    def evaluate(self):
        ctx = self.ctx
        for req in self.requests:
            argv = ["eval", "--spec", ctx.path(f"{req['fam']}.json"),
                    "--points", ctx.path(req["stem"] + ".points.json"),
                    "--mode", req["mode"]]
            req["rc"], req["csv"], _ = ctx.run_cli(req["label"], argv)
            ctx.values += req["size"]

    def check(self):
        ctx = self.ctx
        tables = {}
        for req in self.requests:
            n = req["size"]
            ctx.attempted += n
            # exit 2 with a table flags bad rows (e.g. exterior); they fail one by one
            if isinstance(req["rc"], Exception) or req["rc"] not in (0, 2) or not req["csv"]:
                ctx.failures.extend([f"{req['label']}: exit {req['rc']!r}"] * n)
                continue
            rows = list(csv.DictReader(io.StringIO(req["csv"])))
            mode = req["mode"]
            bad = np.zeros(n, dtype=bool)
            vals = np.full(n, np.nan, dtype=complex)
            for i, row in enumerate(rows[:n]):
                if row["error"] or not row[f"{mode}_re"]:
                    bad[i] = True
                else:
                    vals[i] = complex(float(row[f"{mode}_re"]), float(row[f"{mode}_im"]))
            if len(rows) != n:
                bad[len(rows):] = True
            bad |= ~np.isfinite(vals)
            spec = domains.spec_from_dict(FAMILIES[req["fam"]][0])
            P, Q = tuple(req["P"].T), tuple(req["Q"].T)
            closed = kernels.closed_form_for(spec)
            if closed is not None:
                # the other route on numpy arrays
                other = lifting.compose_pipeline(spec) if mode == "closed" else closed
                ref = np.broadcast_to(other(P, Q), (n,))
                err, gate = rel_err(vals, ref), GATE_LIFT_CLOSED
            else:
                ref = np.conj(np.broadcast_to(lifting.compose_pipeline(spec)(Q, P), (n,)))
                err, gate = rel_err(vals, ref), GATE_SYMMETRY
            bad |= ~(err <= gate)
            if req["near"] and closed is None:
                cap = self.SERIES_CAPS[req["fam"]]
                if req["fam"] not in tables:
                    tables[req["fam"]] = oracle.get_norm_table(spec, cap)
                for i in range(self.SERIES_PAIRS):
                    sv = oracle.series_kernel(spec, req["P"][i], req["Q"][i], cap,
                                              table=tables[req["fam"]])
                    if not (abs(vals[i] - sv.value) <= GATE_SERIES * abs(sv.value)
                            and sv.tail_bound < GATE_TAIL):
                        bad[i] = True
            ctx.failures.extend(f"{req['label']}: row {i} missed its gate"
                                for i in np.flatnonzero(bad))

    def details(self, summary):
        out = {}
        reqs = summary["requests"]
        spans = summary["spans_by_name"]
        one = [r for r in reqs if r["label"] == self.latency_label]
        if one:
            out["cli.eval.self_ms"] = (float(np.median([r["self_ms"].get("cli", 0.0) for r in one])),
                                       "ms", f"median over {len(one)} one-pair requests")
        c = spans.get("domains.contains")
        if c:
            out["domains.contains.us_per_call"] = (1e3 * c["total_ms"] / c["calls"], "us",
                                                   f"{c['calls']} calls")
        c = spans.get("kernels.closed")
        if c:
            out["kernels.closed.us_per_value"] = (1e3 * c["self_ms"] / c["calls"], "us",
                                                  f"{c['calls']} values")
        c = spans.get("lifting.compose_pipeline")
        if c:
            out["lifting.compose_pipeline.ms"] = (c["total_ms"] / c["calls"], "ms",
                                                  f"{c['calls']} calls")
        for k in range(2, 7):
            big = [r for r in reqs if r["label"] == f"stage{k}.lifted.n512"]
            lifted = [r for r in reqs if r["label"].startswith(f"stage{k}.lifted.")]
            if big:
                us = sum(r["self_ms"].get("lifting.value", 0.0) for r in big) * 1e3 / (512 * len(big))
                out[f"lifting.value_us.stage{k}"] = (us, "us", "512-pair panels")
            if lifted:
                n = sum(int(r["label"].rsplit(".n", 1)[1]) for r in lifted)
                muls = sum(r["counters"]["jets.mul.calls"] for r in lifted)
                out[f"jets.mul.calls_per_value.stage{k}"] = (muls / n, "count", f"{n} values")
        return out


class SeriesOracle:
    """Cold degree-30 norm tables (setup) and monomial-series values on
    seeded interior panels (evaluation)."""

    name = "series_oracle"
    latency_label = "3d"
    latency_desc = "one series value of a 3-dimensional family"
    values_desc = ops_desc = "series values"
    FAMILIES = ("egg_inflated_p2", "ball_disk_lift_11", "ball_exp_lift_11",
                "stage3", "ball2")
    CAP = 30
    PAIRS = 300
    RADIUS = 0.45

    def __init__(self, ctx):
        self.ctx = ctx
        self.swap = False

    def perturb(self):
        self.swap = True          # check against the wrong family's closed form

    def prepare(self):
        self.pairs = {}
        for i, fam in enumerate(self.FAMILIES):
            rng = self.ctx.rng(2, i)
            self.pairs[fam] = (interior_points(rng, fam, self.PAIRS, self.RADIUS),
                               interior_points(rng, fam, self.PAIRS, self.RADIUS))

    def setup(self):
        ctx = self.ctx
        self.specs, self.tables, self.builds = {}, {}, {}
        for fam in self.FAMILIES:
            with ctx.tracer.span("domains.spec_from_dict", "domains"):
                self.specs[fam] = domains.spec_from_dict(FAMILIES[fam][0])
            t = time.perf_counter()
            self.tables[fam] = oracle.get_norm_table(self.specs[fam], self.CAP)
            self.builds[fam] = (t, time.perf_counter())

    def evaluate(self):
        ctx = self.ctx
        self.results = {fam: [] for fam in self.FAMILIES}
        for i in range(self.PAIRS):
            for fam in self.FAMILIES:
                P, Q = self.pairs[fam]
                label = "3d" if dim_of(fam) == 3 else f"{dim_of(fam)}d"
                sv = ctx.call(label, oracle.series_kernel, self.specs[fam], P[i], Q[i],
                              self.CAP, table=self.tables[fam])
                self.results[fam].append(sv)
                ctx.values += 1

    def check(self):
        ctx = self.ctx
        for fam, (a, b) in self.builds.items():
            ctx.info[f"oracle.norm_table.build_s.{fam}"] = (ctx.elapsed(a, b), "s", "")
        build = sum(ctx.elapsed(a, b) for a, b in self.builds.values())
        entries = sum(len(t.entries) for t in self.tables.values())
        ctx.info["oracle.norm_table.entries"] = (entries, "count", "")
        ctx.info["oracle.norm_table.us_per_entry"] = (1e6 * build / entries, "us", "")
        swap = {"ball_disk_lift_11": "ball_exp_lift_11", "ball_exp_lift_11": "ball_disk_lift_11"}
        caps, terms = [], []
        for fam in self.FAMILIES:
            ref_fam = swap.get(fam, fam) if self.swap else fam
            K = kernels.closed_form_for(domains.spec_from_dict(FAMILIES[ref_fam][0]))
            P, Q = self.pairs[fam]
            ref = np.broadcast_to(K(tuple(P.T), tuple(Q.T)), (self.PAIRS,))
            d = dim_of(fam)
            for i, sv in enumerate(self.results[fam]):
                ctx.attempted += 1
                if isinstance(sv, Exception):
                    ctx.fail(f"{fam}: {type(sv).__name__}")
                    continue
                caps.append(sv.cap_used)
                terms.append(math.comb(sv.cap_used + d, d))
                if not (abs(sv.value - ref[i]) <= GATE_SERIES * abs(ref[i])
                        and sv.tail_bound < GATE_TAIL):
                    ctx.fail(f"{fam}: pair {i} missed the series gate")
        if caps:
            ctx.info["oracle.series.cap_used"] = (float(np.median(caps)), "count",
                                                  f"median of {len(caps)} values")
            ctx.info["oracle.series.terms_per_value"] = (float(np.mean(terms)), "count",
                                                         f"mean of {len(terms)} values")

    def details(self, summary):
        c = summary["spans_by_name"].get("oracle.series_kernel")
        if not c:
            return {}
        return {"oracle.series.ms_per_value": (c["total_ms"] / c["calls"], "ms",
                                               f"{c['calls']} values")}


class Reproducing:
    """``reproducing_integral`` at its defaults for the ten indices of
    degree <= 2, one seeded interior point per fixture."""

    name = "reproducing"
    latency_label = "call"
    latency_desc = "one reproducing_integral call (10 indices)"
    values_desc = "reproducing-integral values (one per index and point)"
    ops_desc = "index values"
    FIXTURES = ("ball_disk_lift_11", "ball_exp_lift_11")
    INDICES = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
               if a + b + c <= 2]
    RADIUS = 0.4

    def __init__(self, ctx):
        self.ctx = ctx
        self.factor = None

    def perturb(self):
        self.factor = 1.01

    def prepare(self):
        self.points = [interior_points(self.ctx.rng(3, i), fam, 1, self.RADIUS)[0]
                       for i, fam in enumerate(self.FIXTURES)]

    def setup(self):
        ctx = self.ctx
        self.cases = []
        for fam, p in zip(self.FIXTURES, self.points):
            with ctx.tracer.span("domains.spec_from_dict", "domains"):
                spec = domains.spec_from_dict(FAMILIES[fam][0])
            with ctx.tracer.span("kernels.closed_form_for", "kernels"):
                K = kernels.closed_form_for(spec)
            if self.factor is not None:
                K = K.scaled(self.factor)
            if ctx.traced_kernel is not None:
                K = ctx.traced_kernel(K, "kernels.array")
            self.cases.append({"fam": fam, "spec": spec, "K": K,
                               "p": tuple(complex(c) for c in p)})

    def evaluate(self):
        ctx = self.ctx
        for case in self.cases:
            case["out"] = ctx.call("call", oracle.reproducing_integral, case["K"],
                                   case["spec"], self.INDICES, case["p"])
            ctx.values += len(self.INDICES)

    def check(self):
        ctx = self.ctx
        worst_res = worst_est = 0.0
        for case in self.cases:
            ctx.attempted += len(self.INDICES)
            if isinstance(case["out"], Exception):
                ctx.failures.extend([f"{case['fam']}: {type(case['out']).__name__}"]
                                    * len(self.INDICES))
                continue
            vals, errs = case["out"]
            for idx in self.INDICES:
                target = complex(np.prod([c ** e for c, e in zip(case["p"], idx)]))
                scale = max(abs(target), 1e-6)
                res = abs(vals[idx] - target) / scale
                worst_res = max(worst_res, res)
                worst_est = max(worst_est, errs[idx] / scale)
                if not math.isfinite(res) or res > GATE_REPRODUCING:
                    ctx.fail(f"{case['fam']}: index {idx} residual {res:.2e}")
        n = len(self.cases) * len(self.INDICES)
        ctx.info["oracle.reproducing.worst_residual"] = (worst_res, "ratio", f"of {n} index values")
        if worst_res > 0:
            ctx.info["oracle.reproducing.est_over_residual"] = (
                worst_est / worst_res, "ratio",
                f"worst error estimate over worst residual, {n} index values")

    def details(self, summary):
        spans = summary["spans_by_name"]
        calls = spans.get("oracle.reproducing_integral")
        if not calls:
            return {}
        kern = spans.get("kernels.array", {"total_ms": 0.0})
        total = calls["total_ms"] / 1e3
        out = {"oracle.reproducing.s": (total / calls["calls"], "s", f"{calls['calls']} calls"),
               "oracle.reproducing.kernel_s": (kern["total_ms"] / 1e3 / calls["calls"], "s", ""),
               "oracle.reproducing.rest_s": ((total - kern["total_ms"] / 1e3) / calls["calls"], "s",
                                             "FFT, bisection and bookkeeping"),
               "kernels.array.rows_per_call": (
                   summary["counters"]["kernels.array.rows"] / calls["calls"], "count", ""),
               "domains.shadow_contains.rows_per_call": (
                   summary["counters"]["domains.shadow_contains.rows"] / calls["calls"],
                   "count", "the bisection")}
        return out


class GeometryProbe:
    """``bergman boundary`` over a seeded sweep of targets, plus ``sample``
    on the chain stages and ``verify --suite levi``, all through
    ``cli.main``."""

    name = "geometry_probe"
    latency_label = "boundary"
    latency_desc = "one `boundary` invocation"
    values_desc = "boundary invocations"
    ops_desc = "boundary probes, samples and levi cases"
    U_FAMILIES = ("ball_disk_lift_11", "ball_disk_lift_12")
    V_FAMILIES = tuple(f"ball_exp_lift_1{m}_g{g}" for m in (1, 2) for g in (0.5, 1.0, 2.0))
    TARGETS_PER_CLASS = 8
    # On the seed commit, the default S2 path of a V-step family leaves its
    # approach region when |w| is close to 1 and gamma = 2 (BoundaryError,
    # exit 2): such a probe is counted on its own line, not as a failure;
    # see README.md
    KNOWN_LIMITATION = "path left the approach region"
    SAMPLE_COUNT = 2000
    # stage 6 accepts 3.6e-4 of its draws (2.6 s per sample), which would
    # leave the probes a small share of the job; see README.md
    SAMPLED = ("stage2", "stage3", "stage4", "stage5")
    WEIGHT = {"S2": "r", "S3": "w", "S4": "product"}

    def __init__(self, ctx):
        self.ctx = ctx

    def perturb(self):
        cli.compose_pipeline = _scaled(1.02, cli.compose_pipeline)

    def _targets(self):
        rng = self.ctx.rng(4)
        out = []

        def unit(k):
            v = rng.normal(size=k) + 1j * rng.normal(size=k)
            return v / np.linalg.norm(v)

        def disk(r):
            return r * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())

        for fam in self.U_FAMILIES + self.V_FAMILIES:
            m = dim_of(fam) - 2
            for _ in range(self.TARGETS_PER_CLASS):
                for stratum in (("S2", "S3", "S4") if fam in self.U_FAMILIES else ("S2",)):
                    if stratum == "S3":
                        zp = unit(m) * 0.7 * math.sqrt(rng.random())
                    else:
                        zp = unit(m)
                    if stratum == "S2":
                        w = disk(0.7 if fam in self.U_FAMILIES else 1.0)
                    else:
                        w = np.exp(2j * math.pi * rng.random())
                    target = (0j,) + tuple(complex(c) for c in zp) + (complex(w),)
                    weight = self.WEIGHT[stratum] if fam in self.U_FAMILIES else "rho"
                    out.append({"fam": fam, "stratum": stratum, "weight": weight,
                                "target": target})
        return out

    def setup(self):
        """Nothing: every invocation parses its own inputs."""

    def prepare(self):
        ctx = self.ctx
        for fam in self.U_FAMILIES + self.V_FAMILIES + self.SAMPLED:
            write_json(ctx.path(f"{fam}.json"), FAMILIES[fam][0])
        probes = self._targets()
        order = ctx.rng(5).permutation(len(probes))
        self.requests = [dict(probes[i], kind="boundary") for i in order]
        extra = [{"kind": "sample", "fam": fam, "seed": int(ctx.rng(6, k).integers(1 << 31))}
                 for k, fam in enumerate(self.SAMPLED)] + [{"kind": "levi"}]
        gap = len(self.requests) // len(extra)
        for j, req in enumerate(extra):
            self.requests.insert((j + 1) * gap + j, req)

    def evaluate(self):
        ctx = self.ctx
        for k, req in enumerate(self.requests):
            if req["kind"] == "boundary":
                argv = ["boundary", "--spec", ctx.path(f"{req['fam']}.json"),
                        "--target", json.dumps(_wire_point(req["target"])),
                        "--stratum", req["stratum"], "--weight", req["weight"]]
                ctx.values += 1
                label = "boundary"
            elif req["kind"] == "sample":
                req["out"] = ctx.path(f"sample.{req['fam']}.csv")
                argv = ["sample", "--spec", ctx.path(f"{req['fam']}.json"),
                        "--count", str(self.SAMPLE_COUNT), "--seed", str(req["seed"]),
                        "--out", req["out"]]
                label = "sample"
            else:
                argv = ["verify", "--suite", "levi", "--workers", "1"]
                label = "levi"
            req["rc"], req["stdout"], req["stderr"] = ctx.run_cli(label, argv)

    @staticmethod
    def _fields(line):
        return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)

    def check(self):
        ctx = self.ctx
        converged = probes = limited = 0
        accepted = draws = 0.0
        for req in self.requests:
            kind = req["kind"]
            if kind == "levi":
                cases = [ln for ln in req["stdout"].splitlines()
                         if ln.startswith(("PASS levi", "FAIL levi"))]
                ctx.attempted += 3
                passed = sum(ln.startswith("PASS") for ln in cases)
                ctx.failures.extend(["levi: case failed"] * (3 - passed))
                continue
            ctx.attempted += 1
            if (kind == "boundary" and req["fam"].endswith("_g2.0") and req["rc"] == 2
                    and self.KNOWN_LIMITATION in req["stderr"]):
                probes += 1
                limited += 1
                continue
            if req["rc"] != 0:
                ctx.fail(f"{kind} {req.get('fam')} {req.get('stratum', '')}: exit {req['rc']!r}")
                if kind == "boundary":
                    probes += 1
                continue
            f = self._fields(req["stdout"].strip().splitlines()[-1])
            if kind == "boundary":
                probes += 1
                spec = domains.spec_from_dict(FAMILIES[req["fam"]][0])
                want = boundary.predicted_limit(spec, req["target"],
                                                boundary.Stratum[req["stratum"]])
                limit = float(f["limit"])
                ok = f["converged"] == "True"
                converged += ok
                if not (ok and abs(limit - want) <= GATE_BOUNDARY * abs(want)):
                    ctx.fail(f"boundary {req['fam']} {req['stratum']}: limit {limit!r} "
                             f"vs {want!r}, converged={f['converged']}")
            else:
                with open(req["out"], encoding="utf-8", newline="") as fh:
                    header = self._fields(fh.readline().lstrip("# "))
                    rows = list(csv.DictReader(fh))
                pts = np.array([[complex(float(r[f"c{j}_re"]), float(r[f"c{j}_im"]))
                                 for j in range(dim_of(req["fam"]))] for r in rows])
                ratio = float(f["acceptance_ratio"])
                draws += int(header["draws"])
                accepted += ratio * int(header["draws"])
                X = np.abs(pts) ** 2 if len(pts) else np.zeros((0, dim_of(req["fam"])))
                if (len(pts) != self.SAMPLE_COUNT or not 0.0 < ratio <= 1.0
                        or not np.all(FAMILIES[req["fam"]][1](X * (1.0 - 1e-12)))):
                    ctx.fail(f"sample {req['fam']}: bad output")
        ctx.info["boundary.converged_frac"] = (converged / max(probes, 1), "ratio",
                                               f"of {probes} probes")
        ctx.info["boundary.known_limitation_frac"] = (
            limited / max(probes, 1), "ratio",
            f"of {probes} probes: V-step S2 path left its approach region (BoundaryError, "
            "exit 2); not counted in failed")
        ctx.info["failed_frac_with_known_limitation"] = (
            (len(ctx.failures) + limited) / max(ctx.attempted, 1), "ratio",
            f"{len(ctx.failures) + limited}/{ctx.attempted} {self.ops_desc}")
        if draws:
            ctx.info["domains.sample_interior.acceptance"] = (
                accepted / draws, "ratio", f"of {int(draws)} draws over {len(self.SAMPLED)} "
                                           "chain-stage samples")

    def details(self, summary):
        spans = summary["spans_by_name"]
        out = {}
        probes = [r for r in summary["requests"] if r["label"] == "boundary"]
        if probes:
            out["cli.boundary.self_ms"] = (float(np.median([r["self_ms"].get("cli", 0.0)
                                                             for r in probes])),
                                           "ms", f"median over {len(probes)} probes")
        for name, key in (("boundary.default_path", "boundary.default_path.ms"),
                          ("boundary.weighted_limit", "boundary.weighted_limit.ms"),
                          ("boundary.levi_min_eigenvalue", "boundary.levi.ms"),
                          ("domains.sample_interior", "domains.sample_interior.ms")):
            c = spans.get(name)
            if c:
                out[key] = (c["total_ms"] / c["calls"], "ms", f"{c['calls']} calls")
        return out


WORKLOADS = {w.name: w for w in (EvalPanel, SeriesOracle, Reproducing, GeometryProbe)}
