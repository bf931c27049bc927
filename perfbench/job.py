"""One cold job of one workload, in a fresh interpreter.

Started by ``run.py``; writes its measurements to ``--out`` as JSON.
Timed: import, setup and evaluation.  Untimed: the checks that follow.
``--setup-only`` stops after the setup.  ``--extra KIND:N`` adds N units
of extra work to every unit request and ``--extra-only`` runs that extra
work in place of the program's; ``selftest.py`` uses them to show that
the clock adds up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from speed import Speedometer, pin_to_one_cpu  # noqa: E402
from tracing import NoTracer, Tracer, install, wrapper_costs  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--extra", default=None)
    ap.add_argument("--extra-only", action="store_true")
    args = ap.parse_args()

    pin_to_one_cpu()
    speed = Speedometer()
    speed.start()
    tracer = Tracer(T_START) if args.trace else NoTracer()
    t_imports = time.perf_counter()
    with tracer.span("import", "startup"):
        import numpy  # noqa: F401
        import bergman.cli  # noqa: F401
    t_imported = time.perf_counter()
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    wl_cls = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(args.seed, args.workdir, tracer, args.extra, args.extra_only)
    wl = wl_cls(ctx)
    if args.perturb:
        wl.perturb()
    if args.trace:
        restore, ctx.traced_kernel = install(tracer)

    # the benchmark's own input generation is not the program's set-up
    t_prepare = time.perf_counter()
    with tracer.span("prepare", "bench"):
        wl.prepare()
    t_prepared = time.perf_counter()
    with tracer.span("setup", "bench"):
        wl.setup()
    t_setup = time.perf_counter()
    if not args.setup_only:
        with tracer.span("eval", "bench"):
            wl.evaluate()
    t_eval = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        costs = wrapper_costs()
    speed.stop()

    result = {"workload": args.workload, "seed": args.seed, "traced": args.trace,
              "setup_only": args.setup_only, "peak_rss_mb": peak_kb / 1024.0,
              "probe_loop_us": 1e6 * sorted(speed.loops[:speed.n])[speed.n // 2],
              "probes": speed.n}
    # every time is read twice: off the clock that runs at the reference
    # speed (speed.py), which gives the metric, and off the wall clock
    # ("_raw"); both stand still while a probe runs
    ref_clock = speed.clock()
    for suffix, clock in (("_raw", speed.clock(reference=False)), ("", ref_clock)):
        setup_s = float(clock(t_prepare) - clock(T_START) + clock(t_setup) - clock(t_prepared))
        eval_s = float(clock(t_eval) - clock(t_setup))
        result.update({"setup_s" + suffix: setup_s, "eval_s" + suffix: eval_s,
                       "wall_s" + suffix: setup_s + eval_s,
                       "latency" + suffix: [(label, float(clock(b) - clock(a)))
                                            for label, a, b in ctx.latency]})
    if args.setup_only or args.extra_only:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f)
        return 0
    if args.trace:
        tracer.finish(t_eval)
        restore()
    ctx.clock = ref_clock
    wl.check()
    result.update(values=ctx.values, attempted=ctx.attempted,
                  failed=len(ctx.failures), failures=ctx.failures[:20],
                  latency_label=wl.latency_label,
                  desc={"latency": wl.latency_desc, "values": wl.values_desc,
                        "ops": wl.ops_desc},
                  info={k: list(v) for k, v in ctx.info.items()})
    if args.trace:
        clock = ref_clock
        # -X importtime reads the wall clock: its figures get this factor
        result["import_scale"] = float(clock(t_imported) - clock(t_imports)) / (t_imported - t_imports)
        summary = tracer.summary(clock)
        summary["layer_self_ms"]["bench"] -= 1e3 * float(clock(t_prepared) - clock(t_prepare))
        spans = len(tracer.spans) - 1
        muls = summary["counters"]["jets.mul.calls"]
        span_s, count_s = costs(clock)
        summary["overhead"] = {"spans": spans, "span_us": 1e6 * span_s,
                               "muls": muls, "mul_us": 1e6 * count_s,
                               "s": spans * span_s + muls * count_s}
        result["trace"] = summary
        result["spans"] = tracer.span_records(clock)
        result["details"] = {k: list(v) for k, v in wl.details(summary).items()}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
