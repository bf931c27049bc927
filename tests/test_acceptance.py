"""Acceptance gate: one test per exit criterion, each printing a
PASS/FAIL line with the measured figure, the tolerance, and the runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

from bergman.boundary import Stratum, default_path, weighted_limit
from bergman.catalog import (ball_spec, closed_form_families, disk_spec,
                             ball_disk_lift_spec, ball_exp_lift_spec,
                             chain_stage_spec, egg_spec, interior_pairs,
                             interior_points, polydisk_spec)
from bergman.domains import star_shape_check
from bergman.jets import Jet, fresh_tag
from bergman.kernels import (kernel_ball, kernel_egg, kernel_egg_inflated,
                             kernel_ball_disk_lift, kernel_ball_exp_lift,
                             kernel_chain_stage3, kernel_product)
from bergman.lifting import compose_pipeline, lift_U, lift_V
from bergman.oracle import (dirichlet_identity_check, exponent_matrix, get_norm_table,
                            reproducing_integral, series_kernel)

from finite_difference import holomorphic_derivative_fd

PI = math.pi


def _report(name, measured, tol, t0, extra=""):
    dt = time.perf_counter() - t0
    status = "PASS" if measured < tol else "FAIL"
    print(f"{status} {name}: measured={measured:.3e} tolerance={tol:.0e} "
          f"runtime={dt:.1f}s {extra}")
    return measured < tol, dt


def _max_rel(ka, kb, pairs):
    worst = 0.0
    for p, q in pairs:
        a, b = complex(ka(p, q)), complex(kb(p, q))
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    return worst


def test_criterion_1_lift_closed_form_equivalence():
    t0 = time.perf_counter()
    fams = [
        (kernel_egg(1, 2.0), lift_U(kernel_ball(1), (0.5,), 1)),
        (kernel_ball_disk_lift(1, 1), lift_U(kernel_ball(2, n_star=1), (1.0,), 1)),
        (kernel_ball_exp_lift(1, 1, (1.0,)), lift_V(kernel_ball(2, n_star=1), (1.0,), 1)),
    ]
    worst = 0.0
    for closed, lifted in fams:
        pairs = interior_pairs(closed.domain, 200, seed=101, box_radius=0.6)
        worst = max(worst, _max_rel(lifted, closed, pairs))
    ok, dt = _report("criterion-1 lift-equivalence", worst, 1e-10, t0)
    assert ok and dt < 5.0


def test_criterion_2_series_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    worst_tail = 0.0
    for name, (spec, K) in closed_form_families().items():
        table = get_norm_table(spec, 30)
        for p, q in interior_pairs(spec, 20, seed=2024):
            sv = series_kernel(spec, p, q, 30, table=table)
            v = complex(K(p, q))
            worst = max(worst, abs(v - sv.value) / abs(v))
            worst_tail = max(worst_tail, sv.tail_bound)
    ok, dt = _report("criterion-2 series-agreement", worst, 1e-3, t0,
                     extra=f"max_tail={worst_tail:.1e}")
    assert ok and worst_tail < 1e-4 and dt < 60.0


def test_criterion_3_reproducing_property():
    t0 = time.perf_counter()
    fixtures = [kernel_ball_disk_lift(1, 1), kernel_ball_exp_lift(1, 1, (1.0,)),
                kernel_chain_stage3(2.0)]
    fixtures += [compose_pipeline(chain_stage_spec(s)) for s in range(2, 7)]
    worst = 0.0
    for K in fixtures:
        spec = K.domain
        idxs = [tuple(idx) for idx in exponent_matrix(spec.dim, 2).tolist()]
        for p in interior_points(spec, 3, seed=303, box_radius=0.4):
            vals, _ = reproducing_integral(K, spec, idxs, p)
            for idx in idxs:
                target = 1.0 + 0j
                for pj, e in zip(p, idx):
                    target *= complex(pj) ** e
                res = abs(vals[idx] - target) / max(abs(target), 1e-6)
                worst = max(worst, res)
    ok, dt = _report("criterion-3 reproducing", worst, 1e-3, t0)
    assert ok and dt < 5.0


def test_criterion_4_dirichlet_identity():
    t0 = time.perf_counter()
    cs = {1: [(0,), (1,), (2,)], 2: [(0, 0), (1, 1), (2, 0)],
          3: [(0, 0, 0), (1, 0, 1)]}
    grid = [(s, k, c) for s in (0.5, 1.0, 1.7, 3.0)
            for k in (1, 2, 3) for c in cs[k]][:30]
    worst = 0.0
    for s, _, c in grid:
        quad, closed = dirichlet_identity_check(s, c)
        worst = max(worst, abs(quad - closed) / abs(closed))
    ok, dt = _report("criterion-4 dirichlet", worst, 1e-8, t0,
                     extra=f"cases={len(grid)}")
    assert ok and len(grid) == 30 and dt < 5.0


def test_criterion_5_boundary_limits():
    spec = ball_disk_lift_spec(1, 1)
    vspec = ball_exp_lift_spec(1, 1, (1.0,))
    cases = [
        ("S2", spec, kernel_ball_disk_lift(1, 1), (0, 1.0, 0.0), Stratum.S2, "r",
         4 / PI ** 3),
        ("S4", spec, kernel_ball_disk_lift(1, 1), (0, 1.0, 1.0), Stratum.S4, "product",
         4 / PI ** 3),
        ("V", vspec, kernel_ball_exp_lift(1, 1, (1.0,)), (0, 1.0, 0.0), Stratum.S2,
         "rho", 2 / PI ** 3),
    ]
    worst = 0.0
    t0 = time.perf_counter()
    for name, sp, K, target, stratum, weight, want in cases:
        t1 = time.perf_counter()
        path = default_path(sp, target, stratum)
        rep = weighted_limit(K, path, weight)
        rel = abs(rep.limit - want) / want
        worst = max(worst, rel)
        assert time.perf_counter() - t1 < 30.0, name
    ok, dt = _report("criterion-5 boundary-limits", worst, 1e-2, t0)
    assert ok


def test_criterion_6_degenerate_reductions():
    t0 = time.perf_counter()
    worst_exact = 0.0
    kb2 = kernel_ball(2)
    pairs = interior_pairs(kb2.domain, 100, seed=61, box_radius=0.55)
    worst_exact = max(worst_exact, _max_rel(kernel_egg(1, 1.0), kb2, pairs))
    kb3 = kernel_ball(3)
    pairs = interior_pairs(kb3.domain, 100, seed=62, box_radius=0.5)
    worst_exact = max(worst_exact, _max_rel(kernel_ball_disk_lift(2, 0), kb3, pairs))

    base = kernel_ball(2, n_star=1)
    lifted = lift_U(base, (1e-6,), 1)
    prod = kernel_product(base, kernel_ball(1))
    pairs = interior_pairs(ball_disk_lift_spec(1, 1), 50, seed=63, box_radius=0.5)
    worst_prod = _max_rel(lifted, prod, pairs)
    ok1, _ = _report("criterion-6a p=1 and m=0 reductions", worst_exact, 1e-12, t0)
    ok2, _ = _report("criterion-6b small-weight product limit", worst_prod,
                     1e-4, t0)
    assert ok1 and ok2


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    worst_sym = 0.0
    for name, (spec, K) in closed_form_families().items():
        for p, q in interior_pairs(spec, 1000, seed=71, box_radius=0.6):
            a = complex(K(p, q))
            worst_sym = max(worst_sym,
                            abs(a.conjugate() - complex(K(q, p))) / abs(a))
    ok_sym, _ = _report("criterion-7a hermitian-symmetry", worst_sym, 1e-13, t0)

    t1 = time.perf_counter()
    worst_fd = 0.0
    for name, (spec, K) in closed_form_families().items():
        p, q = interior_pairs(spec, 1, seed=72, box_radius=0.45)[0]
        for j in range(K.dim):
            def f(z, j=j):
                pp = list(p)
                pp[j] = z
                return complex(K(pp, q))

            pp = list(p)
            pp[j] = Jet.variable(p[j], order=1, tag=fresh_tag())
            jet = K(pp, q)
            fd, _ = holomorphic_derivative_fd(f, complex(p[j]))
            scale = max(abs(fd), abs(complex(K(p, q))))
            worst_fd = max(worst_fd, abs(jet.derivative(1) - fd) / scale)
    ok_fd, _ = _report("criterion-7b jet-vs-finite-difference", worst_fd,
                       1e-6, t1)

    t2 = time.perf_counter()
    # two acted coordinates, w blocks of 3 (U) and 1 (V), against
    # independent closed forms
    multi = [
        (kernel_egg_inflated(2, 3, 2.0), lift_U(kernel_ball(2), (0.5, 0.5), 3)),
        (kernel_ball_exp_lift(2, 1, (0.7, 1.3)),
         lift_V(kernel_ball(3, n_star=2), (0.7, 1.3), 1)),
    ]
    worst_multi = 0.0
    for closed, lifted in multi:
        for box in (0.4, 0.6):
            pairs = interior_pairs(closed.domain, 200, seed=73, box_radius=box)
            worst_multi = max(worst_multi, _max_rel(lifted, closed, pairs))
    ok_multi, _ = _report("criterion-7c multi-coordinate-lift-vs-closed-form",
                          worst_multi, 1e-13, t2)

    t3 = time.perf_counter()
    specs = {
        "disk": disk_spec(), "ball2": ball_spec(2), "polydisk2": polydisk_spec(2),
        "egg": egg_spec(1, 2.0),
        "ball_disk_lift": ball_disk_lift_spec(1, 1),
        "ball_exp_lift": ball_exp_lift_spec(1, 1, (1.0,)),
        "stage3": chain_stage_spec(3, 2.0), "stage4": chain_stage_spec(4, 2.0, 1.5),
        "stage5": chain_stage_spec(5, 2.0, 1.5, 2.5),
        "stage6": chain_stage_spec(6, 2.0, 1.5, 2.5),
    }
    star_ok = all(star_shape_check(s, trials=64, seed=74) for s in specs.values())
    n_fail = 0 if star_ok else 1
    ok_star, _ = _report("criterion-7d star-shape-check", float(n_fail), 0.5, t3,
                         extra=f"specs={len(specs)}")
    assert ok_sym and ok_fd and ok_multi and ok_star


def test_criterion_8_iterated_pipeline():
    t0 = time.perf_counter()
    spec3 = chain_stage_spec(3, 2.0)
    closed = kernel_chain_stage3(2.0)
    K3 = compose_pipeline(spec3)
    pairs = interior_pairs(spec3, 50, seed=81, box_radius=0.55)
    worst3 = _max_rel(K3, closed, pairs)
    ok3, _ = _report("criterion-8a stage3 pipeline vs closed form", worst3, 1e-10, t0)

    t1 = time.perf_counter()
    spec4 = chain_stage_spec(4, 2.0, 1.5)
    K4 = compose_pipeline(spec4)
    table = get_norm_table(spec4, 24)
    worst4 = 0.0
    for p, q in interior_pairs(spec4, 10, seed=82, box_radius=0.4):
        v = complex(K4(p, q))
        sv = series_kernel(spec4, p, q, 24, table=table)
        worst4 = max(worst4, abs(v - sv.value) / abs(v))
    ok4, _ = _report("criterion-8b stage4 pipeline vs series", worst4, 1e-3, t1)
    assert ok3 and ok4
