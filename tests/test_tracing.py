"""The traced benchmark (perfbench/tracing.py) patches names in the
bergman modules by attribute; installing and restoring it fails when one
of those names has gone."""

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
