"""Benchmark of the ``bergman`` package: four workloads, each run as cold
jobs in fresh interpreters.

    python3 perfbench/run.py --workload eval_panel --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Jobs of the chosen workload repeat until
``--seconds`` have passed (at least one job); every job does the same work
for the seed, so the reported figures are medians over jobs.  Between them
run cheap jobs that stop after the set-up, so that ``setup_s`` is a median
of several samples.  ``--trace 1``
alternates untraced and traced jobs and reports per-layer metrics plus the
tracing overhead.  ``--workload all`` runs the four workloads in turn.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REF_S  # noqa: E402
from tracing import ALL_LAYERS, COUNTERS, split_imports  # noqa: E402

WORKLOADS = ("eval_panel", "series_oracle", "reproducing", "geometry_probe")
# a run must end within 180 s: start no job that could push it past this
RUN_BUDGET_S = 150.0
# set-up samples a run aims for, and the share of --seconds that set-up-only
# jobs may take
SETUP_SAMPLES = 9
MIN_JOBS = 2
SETUP_SHARE = 0.25
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "values_per_s": "1/s",
                    "req_p50_ms": "ms", "peak_rss_mb": "MB"}


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np_version}


def child_env() -> dict:
    env = dict(os.environ)
    # cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["BERGMAN_WORKERS"] = "1"
    # glibc raises its mmap threshold as a run frees large blocks, up to
    # 32 MB, and its trim threshold to twice that; where they stand when an
    # array is allocated decides whether it comes from the heap, which made
    # peak RSS of identical jobs bimodal.  Both are fixed at the values
    # they reach in a long numpy run.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class BenchError(RuntimeError):
    pass


def run_job(workload, seed, workdir, traced, perturb, deadline, index, extra=()):
    out = workdir / f"job{index}.json"
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir / f"job{index}"), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    if perturb:
        cmd.append("--perturb")
    cmd.extend(extra)
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} job {index} ran past the run's time limit") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{workload} job {index} exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    with open(out, encoding="utf-8") as f:
        result = json.load(f)
    if traced and "trace" in result:
        result["trace"]["layer_self_ms"] = split_imports(
            result["trace"]["layer_self_ms"], proc.stderr, result["import_scale"])
    shutil.rmtree(workdir / f"job{index}", ignore_errors=True)
    out.unlink()
    return result


def run_workload(workload, seed, seconds, trace, perturb, workdir, deadline):
    """Full jobs until ``seconds`` have passed, at least ``MIN_JOBS``; untraced
    runs put set-up-only jobs between them while those fit in their share
    of ``seconds``."""
    jobs, setups = [], []
    start = time.perf_counter()
    setup_spent, setup_cost = 0.0, None
    while True:
        traced = trace and len(jobs) % 2 == 1
        t = time.perf_counter()
        jobs.append(run_job(workload, seed, workdir, traced, perturb, deadline,
                            len(jobs) + len(setups)))
        took = time.perf_counter() - t
        if setup_cost is None:
            setup_cost = jobs[0]["setup_s_raw"] + 0.3
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while (not trace and len(setups) + len(jobs) < SETUP_SAMPLES * share
               and setup_spent + setup_cost <= SETUP_SHARE * seconds
               and time.perf_counter() + 2 * setup_cost < deadline):
            t = time.perf_counter()
            setups.append(run_job(workload, seed, workdir, False, perturb, deadline,
                                  len(jobs) + len(setups), ["--setup-only"]))
            setup_cost = time.perf_counter() - t
            setup_spent += setup_cost
        # at least two jobs; a traced run ends on a traced job, after its
        # untraced partner
        if (time.perf_counter() - start >= seconds and len(jobs) >= MIN_JOBS
                and (not trace or len(jobs) % 2 == 0)):
            break
        if time.perf_counter() + 1.5 * took > deadline:
            if trace and len(jobs) < 2:
                raise BenchError(f"{workload}: no time left for a traced job")
            break
    return jobs, setups


def percentile_line(xs):
    """p50 and the highest of p90/p99 with at least ten samples beyond it."""
    xs = sorted(xs)
    n = len(xs)
    out = {"n": n, "p50": statistics.median(xs)}
    for q in (99, 90):
        if n >= 2:
            cut = statistics.quantiles(xs, n=100)[q - 1]
            if sum(x > cut for x in xs) >= 10:
                out[f"p{q}"] = cut
                break
    return out


def end_to_end(jobs, setups, suffix=""):
    """The end-to-end metrics from the untraced jobs, with times read off
    the reference-speed clock (``suffix=""``) or the wall clock ("_raw");
    ``setup_s`` also from the set-up-only jobs."""
    untraced = [j for j in jobs if not j["traced"]]
    label = untraced[0]["latency_label"]
    lat = [1e3 * s for j in untraced for lab, s in j["latency" + suffix] if lab == label]
    pct = percentile_line(lat)
    metrics = {
        "wall_s": statistics.median(j["wall_s" + suffix] for j in untraced),
        "setup_s": statistics.median(j["setup_s" + suffix] for j in untraced + setups),
        "values_per_s": statistics.median(j["values"] / j["eval_s" + suffix] for j in untraced),
        "req_p50_ms": pct["p50"],
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in untraced),
    }
    return metrics, pct


def per_layer(jobs):
    traced = [j for j in jobs if j["traced"]]
    med = statistics.median
    metrics = {f"{layer}.self_ms": med(j["trace"]["layer_self_ms"][layer] for j in traced)
               for layer in ALL_LAYERS}
    for c in COUNTERS:
        metrics[c] = med(j["trace"]["counters"][c] for j in traced)
    for name in ("domains.contains", "domains.defining_function", "lifting.diagonal"):
        metrics[name + ".calls"] = med(
            j["trace"]["spans_by_name"].get(name, {"calls": 0})["calls"] for j in traced)
    metrics["trace.wall_s"] = med(j["wall_s"] for j in traced)
    # spans x cost of one span + counted products x cost of one count,
    # both measured inside each traced job
    metrics["trace.overhead_s"] = med(j["trace"]["overhead"]["s"] for j in traced)
    return metrics


PER_LAYER_UNITS = dict(
    [(f"{layer}.self_ms", "ms") for layer in ALL_LAYERS]
    + [(c, "count") for c in COUNTERS]
    + [("domains.contains.calls", "count"), ("domains.defining_function.calls", "count"),
       ("lifting.diagonal.calls", "count"), ("trace.wall_s", "s"), ("trace.overhead_s", "s")])


def medians_of(jobs, key):
    """Median of each named fact over the jobs that report it."""
    names = {}
    for j in jobs:
        for name, (value, unit, note) in j.get(key, {}).items():
            names.setdefault(name, [unit, note, []])[2].append(value)
    return {name: (statistics.median(vals), unit, note)
            for name, (unit, note, vals) in sorted(names.items())}


def report(workload, seed, trace, jobs, setups, info):
    """Print the human-readable block; return (attempted, failed, metrics)."""
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    untraced = [j for j in jobs if not j["traced"]]
    print(f"# {workload} seed={seed} trace={int(trace)} jobs={len(jobs)} "
          f"(untraced {len(untraced)}) nproc={info['nproc']} cpu={info['cpu']!r} "
          f"python={info['python']} numpy={info['numpy']}")
    e2e, pct = end_to_end(jobs, setups)
    raw, pct_raw = end_to_end(jobs, setups, "_raw")
    n = len(untraced)
    desc = untraced[0]["desc"]
    notes = {"wall_s": f"median of {n} cold jobs",
             "setup_s": f"median of {n + len(setups)} cold jobs ({len(setups)} set-up only)",
             "values_per_s": f"median of {n} jobs, {untraced[0]['values']} "
                             f"{desc['values']} per job",
             "req_p50_ms": f"n={pct['n']} x {desc['latency']}",
             "peak_rss_mb": f"median of {n} jobs"}
    for name, value in e2e.items():
        wall = "" if name == "peak_rss_mb" else f"; wall clock {raw[name]:.6g}"
        print(f"{workload} {name:<14} {value:14.6g} {END_TO_END_UNITS[name]:<6} {notes[name]}{wall}")
    for q in ("p99", "p90"):
        if q in pct:
            beyond = sum(1e3 * s > pct[q] for j in untraced for lab, s in j["latency"]
                         if lab == untraced[0]["latency_label"])
            print(f"{workload} req_{q}_ms     {pct[q]:14.6g} ms     n={pct['n']}, {beyond} "
                  f"beyond; wall clock {pct_raw.get(q, float('nan')):.6g}")
    loop_us = statistics.median(j["probe_loop_us"] for j in jobs)
    probes = sum(j["probes"] for j in jobs + setups)
    print(f"{workload} speed probe loop {loop_us:.1f} us median of the jobs' medians "
          f"(reference {REF_S * 1e6:.0f} us, {probes} probes taken while the program was "
          "paused): times above run at the reference speed")
    frac = failed / attempted if attempted else float("nan")
    print(f"{workload} failed_frac    {frac:14.6g} ratio  {failed}/{attempted} "
          f"{desc['ops']}")
    for j in jobs:
        for reason in j["failures"][:5]:
            print(f"{workload} failure: {reason}")
    for name, (value, unit, note) in medians_of(jobs, "info").items():
        print(f"{workload} {name} {value:.6g} {unit} {note}".rstrip())
    if not trace:
        return attempted, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    layers = per_layer(jobs)
    for name, value in layers.items():
        print(f"{workload} {name} {value:.6g} {PER_LAYER_UNITS[name]}")
    for name, (value, unit, note) in medians_of(jobs, "details").items():
        print(f"{workload} {name} {value:.6g} {unit} {note}".rstrip())
    traced = [j for j in jobs if j["traced"]]
    ov = traced[len(traced) // 2]["trace"]["overhead"]
    print(f"{workload} layer self times, bench, startup and unattributed (time outside every "
          f"span) add up to the traced wall_s by construction")
    print(f"{workload} tracing overhead {1e3 * layers['trace.overhead_s']:.1f} ms: median over "
          f"{len(traced)} traced jobs of spans x span cost + counted products x count cost "
          f"(e.g. {ov['spans']} x {ov['span_us']:.2f} us + {ov['muls']} x {ov['mul_us']:.2f} us)")
    pairs = min(len(traced), len(untraced))
    diff = statistics.median(j["wall_s"] for j in traced) - statistics.median(
        j["wall_s"] for j in untraced)
    print(f"{workload} traced minus untraced wall_s {1e3 * diff:.1f} ms over {pairs} job "
          f"pairs (includes -X importtime and host noise)")
    return attempted, failed, {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}


def write_trace(workload, seed, jobs):
    traced = [j for j in jobs if j["traced"]]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "machine": machine(),
           "span_fields": ["name", "layer", "start_us", "end_us", "parent", "request"],
           "jobs": [{"wall_s": j["wall_s"], "layer_self_ms": j["trace"]["layer_self_ms"],
                     "spans_by_name": j["trace"]["spans_by_name"],
                     "counters": j["trace"]["counters"], "details": j["details"],
                     "spans": j["spans"]} for j in traced]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    print(f"# {workload} spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="self-test: run a deliberately wrong evaluator, which the "
                         "checks must report as failures")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bergman" / "cli.py").is_file():
        print(f"error: no bergman sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    info = machine()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # compile the package once so no job pays for bytecode
        warm = subprocess.run([sys.executable, "-c", "import bergman.cli"], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if warm.returncode != 0:
            raise BenchError("cannot import bergman:\n" + warm.stderr[-4000:])
        budget = RUN_BUDGET_S * (len(workloads) if args.workload == "all" else 1)
        deadline = time.perf_counter() + budget
        attempted = failed = 0
        metrics = {}
        for i, wl in enumerate(workloads):
            wl_deadline = time.perf_counter() + (deadline - time.perf_counter()) / (len(workloads) - i)
            jobs, setups = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                        args.perturb, workdir, wl_deadline)
            a, f, m = report(wl, args.seed, bool(args.trace), jobs, setups, info)
            if args.trace:
                write_trace(wl, args.seed, jobs)
            attempted += a
            failed += f
            prefix = f"{wl}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
