"""Command-line surface: evaluate kernels, run verification suites, probe
boundary limits, sample domains.  Deterministic: the same arguments and
seed produce byte-identical CSV output.

Exit codes: 0 all checks passed, 1 a verification failed, 2 input or
usage error (malformed JSON, a non-finite or out-of-range numeric flag, a
spec whose norm table cannot be computed, a path that cannot be read or
written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import catalog
from .boundary import (Stratum, WEIGHT_NAMES, default_path, expected_weight,
                       levi_min_eigenvalue, predicted_limit, weighted_limit)
from .domains import SamplingError, SpecError, contains, load_spec, sample_interior
from .jets import NonFiniteError
from .kernels import (closed_form_for, kernel_ball_disk_lift, kernel_ball_exp_lift,
                      kernel_chain_stage3, kernel_egg, kernel_egg_inflated)
from .lifting import compose_pipeline
# reproducing_integral stays a cli name: perfbench/tracing.py wraps it here
from .oracle import (ConvergenceError, IntegrationError,  # noqa: F401
                     dirichlet_identity_check, exponent_matrix, get_norm_table,
                     reproducing_check, reproducing_integral, series_kernel)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EVAL_BLOCK = 4096       # rows per eval kernel call: memory does not grow with the file


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header, rows=(), text=(), comment=""):
    """The CSV to ``path`` (stdout for None): the ``comment`` line, the header
    and ``rows`` through csv.writer, then ``text``, rows already in
    csv.writer's format."""
    with (open(path, "w", encoding="utf-8", newline="") if path
          else contextlib.nullcontext(sys.stdout)) as f:
        f.write(comment)
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
        f.writelines(text)


def _wire_point(value, what):
    """A point from its JSON form, a list of [re, im] JSON numbers (not bool)."""
    if type(value) is list and all(
            type(c) is list and len(c) == 2
            and type(c[0]) in (int, float) and type(c[1]) in (int, float)
            for c in value):
        try:
            return tuple(complex(re, im) for re, im in value)
        except OverflowError:
            raise SpecError(f"{what} is out of range") from None
    raise SpecError(f"{what} must be a list of [re, im] number pairs")


def _all_lists(items, length):
    """Whether every item is a list of the given length."""
    return set(map(type, items)) <= {list} and set(map(len, items)) <= {length}


def _load_points(path, dim):
    """The pairs of a points file as two (n, dim) complex arrays P and Q.
    Whole lists are checked at once; only when a check fails does the
    per-point pass run, to name the first bad point."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise SpecError("points file must hold a JSON list")
    # a missing p reads as None, which fails the checks below
    ps = [e.get("p") if isinstance(e, dict) else e for e in data]
    qs = [e.get("q", e.get("p")) if isinstance(e, dict) else e for e in data]
    n, pts = len(data), ps + qs
    if _all_lists(pts, dim):
        coords = list(itertools.chain.from_iterable(pts))
        if _all_lists(coords, 2):
            nums = list(itertools.chain.from_iterable(coords))
            if set(map(type, nums)) <= {int, float}:
                with contextlib.suppress(OverflowError):  # an int beyond the float range
                    Z = np.array(nums, dtype=float).view(complex).reshape(2 * n, dim)
                    return Z[:n], Z[n:]
    for i, (entry, p, q) in enumerate(zip(data, ps, qs)):
        if isinstance(entry, dict) and "p" not in entry:
            raise SpecError(f"point {i} is missing field 'p'")
        p, q = _wire_point(p, f"point {i}"), _wire_point(q, f"point {i}")
        if len(p) != dim or len(q) != dim:
            raise SpecError(f"point {i} has the wrong dimension")
    raise AssertionError("points failed a whole-list check but no per-point check")


# ---------------------------------------------------------------------------
# eval


def _panel_values(K, P, Q, rows, out, errors):
    """Set out[i] to K(p_i, q_i) for the given rows of the panels P and Q
    (shape (dim, N)), one call per block of EVAL_BLOCK rows; rows whose value
    is not finite get the error NonFiniteError, and the other rows of their
    block keep their values from the same call."""
    for start in range(0, len(rows), EVAL_BLOCK):
        block = np.array(rows[start:start + EVAL_BLOCK], dtype=int)
        try:
            out[block] = K(tuple(P[:, block]), tuple(Q[:, block]))
        except NonFiniteError as e:
            v = np.broadcast_to(np.nan if e.values is None else e.values, block.shape)
            ok = np.isfinite(v)
            out[block[ok]] = v[ok]
            for i in block[~ok].tolist():
                errors[i] = type(e).__name__


def cmd_eval(args) -> int:
    spec = load_spec(args.spec)
    P, Q = _load_points(args.points, spec.dim)
    modes = ("closed", "lifted", "series") if args.mode == "all" else (args.mode,)
    kernels = {"closed": closed_form_for(spec)} if "closed" in modes else {}
    if kernels.get("closed", True) is None:
        print("error: no hand-coded closed form matches this spec", file=sys.stderr)
        return EXIT_INPUT
    if "lifted" in modes:
        kernels["lifted"] = compose_pipeline(spec)
    table = get_norm_table(spec, args.cap) if "series" in modes else None
    header = (["i"] + [f"{m}_{part}" for m in modes for part in ("re", "im")]
              + ["series_tail"] * ("series" in modes)
              + [f"delta_{modes[0]}_{m}" for m in modes[1:]] + ["error"])

    n = len(P)
    # overflow is flagged per row, not warned of; a row failing one mode skips the rest
    with np.errstate(all="ignore"):
        inside = contains(spec, np.concatenate([P, Q]).T)
        errors = ["" if ok else "exterior" for ok in (inside[:n] & inside[n:]).tolist()]
        # a value no mode reached stays NaN in both parts, and an error row prints it empty
        vals, tails = {}, np.full(n, np.nan)
        for mode in modes:
            out = vals[mode] = np.full(n, complex(np.nan, np.nan))
            todo = [i for i in range(n) if not errors[i]]
            if mode != "series":
                _panel_values(kernels[mode], P.T, Q.T, todo, out, errors)
            else:
                for i in todo:
                    try:
                        sv = series_kernel(spec, tuple(P[i]), tuple(Q[i]), args.cap,
                                           table=table)
                        out[i], tails[i] = sv.value, sv.tail_bound
                    except (ConvergenceError, NonFiniteError, IntegrationError) as e:
                        errors[i] = type(e).__name__
        # Python's abs of a complex is libm's hypot; numpy's abs can differ in the last bit
        ref = vals[modes[0]]
        cols = ([c for m in modes for c in (vals[m].real, vals[m].imag)]
                + [tails] * ("series" in modes)
                + [np.hypot(d.real, d.imag) / np.maximum(np.hypot(ref.real, ref.imag), 1e-300)
                   for d in (vals[m] - ref for m in modes[1:])])
    row = "%d" + ",%.17g" * len(cols) + ",\r\n"   # csv.writer's row, empty error field

    def line(i, xs):
        if not errors[i]:
            return row % (i, *xs)
        return ",".join([str(i), *("" if math.isnan(x) else _fmt(x) for x in xs),
                         errors[i]]) + "\r\n"

    _write_csv(args.out, header, text=(
        "".join(line(i, xs) for i, xs in enumerate(
            np.stack([c[start:start + EVAL_BLOCK] for c in cols], axis=1).tolist(), start))
        for start in range(0, n, EVAL_BLOCK)))
    return EXIT_INPUT if any(errors) else EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _case(name, measured, tol, passed=None) -> dict:
    return {"case": name, "measured": measured, "tolerance": tol,
            "passed": measured < tol if passed is None else passed}


def _pair_columns(pairs):
    """The P and Q column tuples of a list of (p, q) point pairs."""
    return (tuple(np.array(side).T) for side in zip(*pairs))


def _suite_symmetry(tol, seed):
    for name, (spec, K) in catalog.closed_form_families().items():
        P, Q = _pair_columns(catalog.interior_pairs(spec, 1000, seed, box_radius=0.6))
        a, b = K(P, Q), K(Q, P)
        worst = float(np.max(np.abs(np.conj(a) - b) / np.maximum(np.abs(a), 1e-300)))
        yield _case(name, worst, tol)


def _suite_lift_equivalence(tol, seed):
    fams = [
        ("egg", kernel_egg(1, 2.0)),
        ("ball_disk_lift", kernel_ball_disk_lift(1, 1)),
        ("ball_exp_lift", kernel_ball_exp_lift(1, 1, (1.0,))),
        # two acted coordinates
        ("egg_inflated_w3", kernel_egg_inflated(2, 3, 2.0)),
        ("ball_exp_lift_2star", kernel_ball_exp_lift(2, 1, (0.7, 1.3))),
    ]
    for name, closed in fams:
        P, Q = _pair_columns(catalog.interior_pairs(closed.domain, 200, seed, box_radius=0.6))
        a, b = closed(P, Q), compose_pipeline(closed.domain)(P, Q)
        worst = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)))
        yield _case(name, worst, tol)


def _suite_series(tol, seed):
    for name, (spec, K) in catalog.closed_form_families().items():
        table = get_norm_table(spec, 30)
        worst = worst_tail = 0.0
        for p, q in catalog.interior_pairs(spec, 20, seed):
            sv = series_kernel(spec, p, q, 30, table=table)
            v = complex(K(p, q))
            worst = max(worst, abs(v - sv.value) / max(abs(v), 1e-300))
            worst_tail = max(worst_tail, sv.tail_bound)
        yield _case(name, worst, tol, worst < tol and worst_tail < 1e-4)


def _suite_dirichlet(tol, seed):
    cs = {1: [(0,), (1,), (2,)], 2: [(0, 0), (1, 1), (2, 0)],
          3: [(0, 0, 0), (1, 0, 1)]}
    grid = [(s, k, c) for s in (0.5, 1.0, 1.7, 3.0)
            for k in (1, 2, 3) for c in cs[k]]
    for s, k, c in grid[:30]:
        quad, closed = dirichlet_identity_check(s, c)
        yield _case(f"s={s},k={k},c={c}", abs(quad - closed) / max(abs(closed), 1e-300), tol)


def _suite_reproducing(tol, seed):
    fixtures = [
        ("ball_disk_lift", kernel_ball_disk_lift(1, 1)),
        ("ball_exp_lift", kernel_ball_exp_lift(1, 1, (1.0,))),
        ("chain_stage3", kernel_chain_stage3(2.0)),
        ("chain_stage4", compose_pipeline(catalog.chain_stage_spec(4))),
    ]
    for name, K in fixtures:
        idxs = [tuple(idx) for idx in exponent_matrix(K.dim, 2).tolist()]
        for p in catalog.interior_points(K.domain, 3, seed, box_radius=0.4):
            worst = max(reproducing_check(K, K.domain, idxs, p).values())
            yield _case(f"{name}@{_fmt(abs(p[0]))}", worst, tol)


def _suite_levi(tol, seed):
    v = levi_min_eigenvalue(catalog.ball_spec(2), (1.0, 0.0))
    yield _case("ball2", abs(v - 1.0), 1e-4)
    z = math.sqrt((1 - 0.09) * (1 - 0.25))
    v = levi_min_eigenvalue(catalog.ball_disk_lift_spec(1, 1), (z, 0.5, 0.3))
    yield _case("ball-disk-lift-S1", v, 0.0, v > 0.0)
    v = levi_min_eigenvalue(catalog.ball_exp_lift_spec(1, 1, (1.0,)), (0.0, 1.0, 0.4))
    yield _case("ball-exp-lift-weak", abs(v), tol)


_SUITE_BUILDERS = {
    "symmetry": (_suite_symmetry, 1e-13),
    "reproducing": (_suite_reproducing, 1e-3),
    "series": (_suite_series, 1e-3),
    "dirichlet": (_suite_dirichlet, 1e-8),
    "lift-equivalence": (_suite_lift_equivalence, 1e-10),
    "levi": (_suite_levi, 1e-6),
}


def cmd_verify(args) -> int:
    builder, tol = _SUITE_BUILDERS[args.suite]
    results = list(builder(tol, args.seed))   # every case runs before the first line
    n_fail = sum(not r["passed"] for r in results)
    rows = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {args.suite} {r['case']} measured={_fmt(r['measured'])} "
              f"tolerance={_fmt(r['tolerance'])}")
        rows.append([args.suite, r["case"], _fmt(r["measured"]),
                     _fmt(r["tolerance"]), status])
    print(f"{args.suite}: {len(results) - n_fail}/{len(results)} passed")
    if args.out:
        _write_csv(args.out, ["suite", "case", "measured", "tolerance", "status"], rows)
    return EXIT_VERIFY if n_fail else EXIT_OK


# ---------------------------------------------------------------------------
# boundary


def cmd_boundary(args) -> int:
    spec = load_spec(args.spec)
    target = _wire_point(json.loads(args.target), "--target")
    stratum = Stratum[args.stratum]
    want = expected_weight(spec, stratum)
    if args.weight != want:
        print(f"error: stratum {stratum.value} pairs with weight '{want}' "
              f"(S2 -> r, S3 -> w, S4 -> product, V-step -> rho)",
            file=sys.stderr)
        return EXIT_INPUT
    K = compose_pipeline(spec)
    path = default_path(spec, target, stratum)
    report = weighted_limit(K, path, args.weight)
    report.predicted = predicted_limit(spec, target, stratum)
    if args.out:
        _write_csv(args.out, ["k", "t", "kernel", "weighted", "extrapolated"],
                   [[k, *map(_fmt, row)] for k, row in enumerate(zip(
                       report.ts, report.kernel_values, report.weighted,
                       report.extrapolated), start=1)])
    line = (f"limit={_fmt(report.limit)} spread={_fmt(report.spread)} "
            f"converged={report.converged}")
    if report.predicted is not None:
        rel = abs(report.limit - report.predicted) / abs(report.predicted)
        line += f" predicted={_fmt(report.predicted)} rel={_fmt(rel)}"
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    spec = load_spec(args.spec)
    res = sample_interior(spec, args.count, seed=args.seed, box_radius=args.box_radius)
    if args.out:
        header = ["i"] + [f"c{j}_{part}" for j in range(spec.dim) for part in ("re", "im")]
        # csv.writer's row, formatted as _fmt does: "%.17g" is f"{x:.17g}"
        row = "%d" + ",%.17g" * (2 * spec.dim) + "\r\n"
        flat = res.points.view(float).reshape(len(res.points), -1)
        _write_csv(args.out, header, text=(   # 4,096-row blocks: memory bounded for any --count
            "".join(row % (i, *x) for i, x in enumerate(flat[start:start + 4096].tolist(), start))
            for start in range(0, len(flat), 4096)),
            comment=(f"# acceptance_ratio={_fmt(res.acceptance_ratio)} "
                     f"volume_estimate={_fmt(res.volume_estimate)} draws={res.draws}\n"))
    print(f"accepted={len(res.points)} acceptance_ratio={_fmt(res.acceptance_ratio)} "
          f"volume_estimate={_fmt(res.volume_estimate)}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _positive(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return v


def _nonnegative(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return v


def _seed(text: str) -> int:
    v = int(text)
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {text!r}")
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bergman",
        description="Bergman kernels on lifted Hartogs domains: evaluation, "
                    "verification, boundary probes, sampling.")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate kernels at point pairs")
    pe.add_argument("--spec", required=True, help="domain spec JSON file")
    pe.add_argument("--points", required=True, help="points JSON file")
    pe.add_argument("--mode", default="all",
                    choices=("closed", "lifted", "series", "all"))
    pe.add_argument("--cap", type=_nonnegative, default=40, help="series degree cap")
    pe.add_argument("--out", default=None, help="output CSV path")
    pe.set_defaults(handler=cmd_eval)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=tuple(_SUITE_BUILDERS))
    pv.add_argument("--seed", type=_seed, default=2024)
    # accepts only 1, the value perfbench's argv passes: the cases run in order
    pv.add_argument("--workers", type=int, default=1, choices=(1,))
    pv.add_argument("--out", default=None)
    pv.set_defaults(handler=cmd_verify)

    pb = sub.add_parser("boundary", help="weighted boundary-limit probe")
    pb.add_argument("--spec", required=True)
    pb.add_argument("--target", required=True,
                    help='JSON [[re,im],...] boundary point')
    pb.add_argument("--stratum", required=True, choices=("S2", "S3", "S4"))
    pb.add_argument("--weight", required=True, choices=WEIGHT_NAMES)
    pb.add_argument("--out", default=None)
    pb.set_defaults(handler=cmd_boundary)

    ps = sub.add_parser("sample", help="draw uniform interior points")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--count", type=int, required=True)
    ps.add_argument("--seed", type=_seed, default=0)
    ps.add_argument("--box-radius", type=_positive, default=None)
    ps.add_argument("--out", default=None)
    ps.set_defaults(handler=cmd_sample)
    return ap


# built on the first call, not at import: it costs about a millisecond
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SamplingError, IntegrationError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
