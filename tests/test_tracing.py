"""The traced benchmark (perfbench/tracing.py) patches names in the
bergman modules by attribute; installing and restoring it fails when one
of those names has gone.  Its workloads (perfbench/workloads.py) send
fixed CLI argv, which must keep parsing."""

import importlib.util
import time
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_benchmark_installs_and_restores():
    import bergman.cli as cli
    import bergman.oracle as oracle

    tracing = _load_tracing()
    before = (cli.contains, oracle.series_kernel, oracle.shadow_contains)
    restore, _ = tracing.install(tracing.Tracer(time.perf_counter()))
    try:
        assert oracle.series_kernel is not before[1]
    finally:
        restore()
    assert (cli.contains, oracle.series_kernel, oracle.shadow_contains) == before


def test_traced_kernels_return_untraced_values():
    # the tracer wraps Kernel.__call__ and Kernel.diagonal: a traced kernel
    # returns the untraced values bit for bit, on a panel and a diagonal
    import numpy as np

    import bergman.cli as cli
    from bergman.catalog import chain_stage_spec, interior_pairs

    spec = chain_stage_spec(3)
    P, Q = (tuple(np.array(side).T) for side in zip(*interior_pairs(spec, 64, seed=3)))

    def values():
        kernels = [cli.compose_pipeline(spec), cli.closed_form_for(spec)]
        return kernels, [(K(P, Q), K.diagonal(P)) for K in kernels]

    _, want = values()
    tracing = _load_tracing()
    restore, _ = tracing.install(tracing.Tracer(time.perf_counter()))
    try:
        traced, got = values()
    finally:
        restore()
    assert [type(K).__name__ for K in traced] == ["TracedKernel"] * 2
    for (a, da), (b, db) in zip(want, got):
        assert a.shape == (64,) and np.array_equal(a, b) and np.array_equal(da, db)


def test_traced_reproducing_counts_kernel_rows():
    # the reproducing pass evaluates its tori through Kernel.__call__, the
    # method a traced kernel wraps, so the traced row counter sees them
    import bergman.cli as cli
    from bergman.catalog import ball_disk_lift_spec

    spec = ball_disk_lift_spec(1, 1)
    tracing = _load_tracing()
    tracer = tracing.Tracer(time.perf_counter())
    restore, _ = tracing.install(tracer)
    try:
        cli.reproducing_integral(cli.closed_form_for(spec), spec,
                                 [(0, 0, 0), (1, 0, 1)], (0.2, 0.1, 0.3))
    finally:
        restore()
    assert tracer.counters["kernels.array.rows"] > 0


def test_benchmark_argv_parse():
    from bergman.cli import build_parser

    parse = build_parser().parse_args
    args = parse(["verify", "--suite", "levi", "--workers", "1"])
    assert (args.suite, args.workers) == ("levi", 1)
    args = parse(["boundary", "--spec", "s.json", "--target", "[[0,0],[1,0],[0,0]]",
                  "--stratum", "S2", "--weight", "r"])
    assert (args.stratum, args.weight) == ("S2", "r")
    args = parse(["sample", "--spec", "s.json", "--count", "2000", "--seed", "5",
                  "--out", "p.csv"])
    assert (args.count, args.seed, args.out) == (2000, 5, "p.csv")
    args = parse(["eval", "--spec", "s.json", "--points", "p.json", "--mode", "lifted"])
    assert (args.points, args.mode) == ("p.json", "lifted")
