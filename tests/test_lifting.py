import math

import numpy as np
import pytest

from bergman.catalog import (ball_spec, ball_disk_lift_spec, chain_stage_spec,
                             closed_form_families, interior_pairs)
from bergman.domains import BaseDomain, DomainSpec, LiftStep
from bergman.jets import Jet, JetOrderError, fresh_tag
from bergman.kernels import (closed_form_for, kernel_ball, kernel_egg,
                             kernel_ball_disk_lift, kernel_ball_exp_lift,
                             kernel_chain_stage3, kernel_product)
from bergman.lifting import (LiftError, compose_pipeline, lift_U, lift_V,
                             slice_kernel)
from bergman.oracle import reproducing_integral, series_kernel

PI = math.pi


def _max_rel(ka, kb, pairs):
    worst = 0.0
    for p, q in pairs:
        a, b = complex(ka(p, q)), complex(kb(p, q))
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    return worst


def test_slice_at_zero_is_base():
    base = kernel_ball(2, n_star=1)
    sl = slice_kernel(base, LiftStep("U", (1.0,), 1), (0j,))
    for p, q in interior_pairs(base.domain, 20, seed=1, box_radius=0.6):
        assert complex(sl(p, q)) == pytest.approx(complex(base(p, q)), rel=1e-15)


def test_slice_factor_value():
    # disk base, weight 1, |w|^2 = 1/2 at the origin: factor 2 times 1/pi
    sl = slice_kernel(kernel_ball(1), LiftStep("U", (1.0,), 1),
                      (math.sqrt(0.5),))
    assert complex(sl((0,), (0,))) == pytest.approx(2 / PI)


def test_slice_matches_rescaled_disk_family():
    # the fixed-w cross-section kernel of |z|^{2a} + |w|^2 < 1:
    # (1-|eta|^2)^{1/a} / (pi ((1-|eta|^2)^{1/a} - z zeta-bar)^2)
    a = 2.0
    sl = slice_kernel(kernel_ball(1), LiftStep("U", (1.0 / a,), 1), (0.6,))
    d = (1 - 0.36) ** (1 / a)
    for z, zeta in [(0.3, 0.2), (0.5 + 0.1j, 0.2 - 0.3j), (0.0, 0.7)]:
        want = d / (PI * (d - z * complex(zeta).conjugate()) ** 2)
        assert complex(sl((z,), (zeta,))) == pytest.approx(want, rel=1e-14)


def test_slice_w_must_fill_the_step_block():
    # a one-entry w for a two-entry block would read ||w||^2 off that entry
    step = LiftStep("U", (1.0,), 2)
    for w in [(0.3,), (0.3, 0.4j, 0.0)]:
        with pytest.raises(LiftError):
            slice_kernel(kernel_ball(1), step, w)
    # ||w||^2 = 1/4: factor 4/3 times 1/pi at the origin
    sl = slice_kernel(kernel_ball(1), step, (0.3, 0.4j))
    assert complex(sl((0,), (0,))) == pytest.approx(4 / (3 * PI))


def test_lifted_kernel_continues_past_unit_eta():
    # q's w entry eta outside the unit disk, |w eta-bar| < 1: the lifted
    # kernel gives the closed form's continuation, as the closed form does
    spec, closed = closed_form_families()["ball_disk_lift_11"]
    lifted = compose_pipeline(spec)
    rng = np.random.default_rng(5)
    for p, q in interior_pairs(spec, 20, seed=6):
        eta = rng.uniform(1.0, 1.1) * np.exp(2j * PI * rng.uniform())
        q = (*q[:-1], complex(eta))
        assert 1.0 < abs(q[-1]) < 1.1 and abs(p[-1] * eta.conjugate()) < 1.0
        want = complex(closed(p, q))
        assert abs(complex(lifted(p, q)) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("p_exp", [2.0, 2.7, 0.6])
def test_lift_u_matches_quartic_fiber_kernel(p_exp):
    lifted = lift_U(kernel_ball(1), (1.0 / p_exp,), 1)
    closed = kernel_egg(1, p_exp)
    pairs = interior_pairs(closed.domain, 200, seed=4, box_radius=0.6)
    assert _max_rel(lifted, closed, pairs) < 1e-10


def test_lift_u_matches_disk_fibered_ball():
    lifted = lift_U(kernel_ball(2, n_star=1), (1.0,), 1)
    closed = kernel_ball_disk_lift(1, 1)
    pairs = interior_pairs(closed.domain, 200, seed=4, box_radius=0.6)
    assert _max_rel(lifted, closed, pairs) < 1e-10


def test_lift_v_matches_exp_fibered_ball():
    lifted = lift_V(kernel_ball(2, n_star=1), (1.0,), 1)
    closed = kernel_ball_exp_lift(1, 1, (1.0,))
    pairs = interior_pairs(closed.domain, 200, seed=4, box_radius=0.6)
    assert _max_rel(lifted, closed, pairs) < 1e-10


def test_lift_v_origin_value():
    lifted = lift_V(kernel_ball(1), (1.0,), 1)
    assert complex(lifted((0, 0), (0, 0))) == pytest.approx(1 / PI ** 2)


def test_lift_u_zero_slice_reduction():
    # at w = eta = 0 the lifted kernel reduces to
    # (1/(pi^2 p)) ((p+1) + (1-p) z zeta-bar) (1 - z zeta-bar)^{-3}
    p_exp = 2.0
    lifted = lift_U(kernel_ball(1), (1.0 / p_exp,), 1)
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        zeta = complex(*rng.uniform(-0.6, 0.6, 2))
        s = z * zeta.conjugate()
        want = ((p_exp + 1) + (1 - p_exp) * s) / (PI ** 2 * p_exp * (1 - s) ** 3)
        got = complex(lifted((z, 0), (zeta, 0)))
        assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p_exp", [2.0, 3.5])
def test_lift_v_acting_on_inner_w_matches_stage3(p_exp):
    lifted = lift_V(kernel_egg(1, p_exp), (0.0, 1.0), 1)
    closed = kernel_chain_stage3(p_exp)
    pairs = interior_pairs(closed.domain, 100, seed=9, box_radius=0.55)
    assert _max_rel(lifted, closed, pairs) < 1e-10


def test_vector_w_lift_is_ball():
    lifted = lift_U(kernel_ball(1), (1.0,), 2)
    closed = kernel_ball(3)
    pairs = interior_pairs(closed.domain, 50, seed=14, box_radius=0.5)
    assert _max_rel(lifted, closed, pairs) < 1e-12


def test_vector_w_lift_matches_series():
    # {|z|^2/(1 - ||w||^2) < 1, ||w|| < 1} with w in C^2
    lifted = lift_U(kernel_ball(1), (1.0,), 2)
    spec = lifted.domain
    worst = 0.0
    for p, q in interior_pairs(spec, 10, seed=14, box_radius=0.45):
        sv = series_kernel(spec, p, q, 28)
        v = complex(lifted(p, q))
        worst = max(worst, abs(v - sv.value) / abs(v))
        assert sv.tail_bound < 1e-4
    assert worst < 1e-3


def test_vector_w_plane_fibered_lift_matches_series():
    # {e^{||w||^2} |z|^2 < 1} with w in C^2: the squared first-order operator
    lifted = lift_V(kernel_ball(1), (1.0,), 2)
    spec = lifted.domain
    worst = 0.0
    for p, q in interior_pairs(spec, 10, seed=33, box_radius=0.4):
        sv = series_kernel(spec, p, q, 26)
        v = complex(lifted(p, q))
        worst = max(worst, abs(v - sv.value) / abs(v))
    assert worst < 1e-3


def test_order3_vector_lift_is_ball():
    # the triple-factor operator product collapses the C^3 fiber exactly
    lifted = lift_U(kernel_ball(1), (1.0,), 3)
    closed = kernel_ball(4)
    pairs = interior_pairs(closed.domain, 30, seed=51, box_radius=0.45)
    assert _max_rel(lifted, closed, pairs) < 1e-12


def test_mixed_weight_lift_matches_series():
    # non-uniform weights across two starred coordinates
    from bergman.oracle import get_norm_table
    lifted = lift_U(kernel_ball(2), (0.3, 1.7), 1)
    spec = lifted.domain
    table = get_norm_table(spec, 40)
    worst = 0.0
    for p, q in interior_pairs(spec, 8, seed=53, box_radius=0.4):
        sv = series_kernel(spec, p, q, 40, table=table)
        v = complex(lifted(p, q))
        worst = max(worst, abs(v - sv.value) / abs(v))
    assert worst < 1e-7


def test_mixed_pipeline_partial_weights_matches_series():
    from bergman.oracle import get_norm_table
    specs = [
        # plane-fibered then disk-fibered step over a two-star ball, with one
        # star coordinate skipped by the second step
        DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (1.0, 1.0)),
                   (LiftStep("V", (0.5, 1.2), 1), LiftStep("U", (0.7, 0.0, 0.4), 1))),
        # a polydisk base with a passive coordinate
        DomainSpec(BaseDomain("Polydisk", 1, 1), (LiftStep("U", (1.0,), 1),)),
    ]
    for spec in specs:
        base = DomainSpec(spec.base, ())
        assert closed_form_for(base).domain == base
        K = compose_pipeline(spec)
        table = get_norm_table(spec, 22)
        worst = 0.0
        for p, q in interior_pairs(spec, 5, seed=54, box_radius=0.35):
            sv = series_kernel(spec, p, q, 22, table=table)
            v = complex(K(p, q))
            worst = max(worst, abs(v - sv.value) / abs(v))
        assert worst < 1e-3, spec


@pytest.mark.parametrize("step,cap", [
    (LiftStep("V", (0.5, 1.2), 2), 22),
    (LiftStep("U", (0.7, 0.4), 3), 18),
], ids=["V-w2", "U-w3"])
def test_multi_coordinate_w_block_lift_matches_series(step, cap):
    # one lift acting on both star coordinates of the 2-ball with a w block
    # of dimension > 1: the operator is a product of k factors in d/ds
    from bergman.oracle import get_norm_table
    spec = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (1.0, 1.0)),
                      (step,))
    K = compose_pipeline(spec)
    table = get_norm_table(spec, cap)
    for p, q in interior_pairs(spec, 5, seed=54, box_radius=0.35):
        sv = series_kernel(spec, p, q, cap, table=table)
        v = complex(K(p, q))
        assert abs(v - sv.value) <= 1e-3 * abs(v)
        assert sv.tail_bound <= 1e-4 * abs(v)


def test_stage5_pipeline_matches_series():
    # three nested jet levels, five coordinates; no closed form exists
    spec = chain_stage_spec(5, 2.0, 1.5, 2.5)
    K = compose_pipeline(spec)
    from bergman.oracle import get_norm_table
    table = get_norm_table(spec, 18)
    worst = 0.0
    for p, q in interior_pairs(spec, 3, seed=40, box_radius=0.35):
        sv = series_kernel(spec, p, q, 18, table=table)
        v = complex(K(p, q))
        worst = max(worst, abs(v - sv.value) / abs(v))
        herm = complex(K(q, p))
        assert abs(v.conjugate() - herm) <= 1e-11 * abs(v)
    assert worst < 1e-3


def test_compose_pipeline_identity_on_empty_lifts():
    K = compose_pipeline(ball_spec(2))
    K2 = compose_pipeline(ball_spec(2))
    p, q = interior_pairs(ball_spec(2), 1, seed=3)[0]
    assert complex(K(p, q)) == complex(K2(p, q))
    from bergman.lifting import base_kernel
    assert complex(K(p, q)) == complex(base_kernel(ball_spec(2).base)(p, q))


def test_compose_pipeline_stage3():
    K = compose_pipeline(chain_stage_spec(3, 2.0))
    closed = kernel_chain_stage3(2.0)
    pairs = interior_pairs(closed.domain, 50, seed=10, box_radius=0.55)
    assert _max_rel(K, closed, pairs) < 1e-10


def test_compose_pipeline_stage4_series_and_symmetry():
    spec = chain_stage_spec(4, 2.0, 1.5)
    K = compose_pipeline(spec)
    worst = 0.0
    for p, q in interior_pairs(spec, 10, seed=11, box_radius=0.4):
        v = complex(K(p, q))
        sv = series_kernel(spec, p, q, 24)
        worst = max(worst, abs(v - sv.value) / abs(v))
        herm = complex(K(q, p))
        assert abs(v.conjugate() - herm) <= 1e-12 * abs(v)
    assert worst < 1e-3


def test_small_weight_limit_is_product_kernel():
    base = kernel_ball(2, n_star=1)
    eps = 1e-6
    lifted = lift_U(base, (eps,), 1)
    prod = kernel_product(base, kernel_ball(1))
    pairs = interior_pairs(ball_disk_lift_spec(1, 1), 20, seed=18, box_radius=0.5)
    assert _max_rel(lifted, prod, pairs) < 1e-4


def test_unsupported_jet_order_rejected():
    with pytest.raises(JetOrderError):
        lift_U(kernel_ball(1), (1.0,), 4)
    from bergman.domains import BaseDomain, DomainSpec
    spec = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 1, 0, (1.0,)),
                      (LiftStep("U", (1.0,), 4),))
    with pytest.raises(JetOrderError):
        compose_pipeline(spec)


def test_weight_arity_enforced():
    with pytest.raises(LiftError):
        lift_U(kernel_ball(2), (1.0,), 1)      # two star coordinates


def test_pipeline_needs_closed_form_base():
    from bergman.domains import BaseDomain, DomainSpec
    oval = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (2.0, 2.0)))
    with pytest.raises(LiftError):
        compose_pipeline(oval)


def test_lifted_evaluator_is_holomorphic():
    # finite-difference Cauchy-Riemann residuals in p (holomorphic) and in
    # q (anti-holomorphic)
    K = lift_U(kernel_ball(2, n_star=1), (1.0,), 1)
    p, q = interior_pairs(ball_disk_lift_spec(1, 1), 1, seed=19, box_radius=0.4)[0]
    h = 1e-5
    for j in range(3):
        def fp(z):
            pp = list(p); pp[j] = z
            return complex(K(pp, q))

        def fq(z):
            qq = list(q); qq[j] = z
            return complex(K(p, qq)).conjugate()

        for f, z0 in ((fp, complex(p[j])), (fq, complex(q[j]))):
            dre = (f(z0 + h) - f(z0 - h)) / (2 * h)
            dim = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2j * h)
            assert abs(dre - dim) <= 1e-6 * max(1.0, abs(dre))


def test_degree_structure_of_lifted_kernel():
    # expansion in (z, zeta-bar) at fixed (w, eta): coefficients couple only
    # equal powers, K = sum c_a (z zeta-bar)^a (w eta-bar)^c
    K = lift_U(kernel_ball(1), (0.5,), 1)
    w, eta = 0.4 + 0.1j, 0.3 - 0.2j
    t_z, t_q = fresh_tag(), fresh_tag()
    zj = Jet.variable(0j, order=3, tag=t_z)
    qj = Jet.variable(0j, order=3, tag=t_q)
    val = K((zj, w), (qj, eta.conjugate()), q_conjugated=True)
    assert isinstance(val, Jet) and val.tag == t_q

    def coeff(a, ap):
        outer = val.coefficient(ap)
        if not isinstance(outer, Jet):
            return outer if a == 0 else 0j
        return complex(outer.coefficient(a))

    scale = abs(coeff(0, 0))
    for a in range(4):
        for ap in range(4):
            if a + ap > 3 or a == ap:
                continue
            assert abs(coeff(a, ap)) <= 1e-12 * scale, (a, ap)
    assert abs(coeff(1, 1)) > 1e-6 * scale


def test_lifted_reproducing_property():
    # monomials z^a w^c with |a|, |c| <= 2 reproduce under the lifted kernel
    K = lift_U(kernel_ball(1), (0.5,), 1)
    spec = K.domain
    p = (0.35, 0.3)
    idxs = [(a, c) for a in range(3) for c in range(3)]
    vals, _ = reproducing_integral(K, spec, idxs, p)
    for idx in idxs:
        target = p[0] ** idx[0] * p[1] ** idx[1]
        assert abs(vals[idx] - target) / max(abs(target), 1e-6) < 1e-3, idx
