import math

import numpy as np
import pytest

from bergman.catalog import (ball_spec, closed_form_families, egg_spec, interior_pairs,
                             interior_points)
from bergman.domains import KIND_ELLIPSOID, BaseDomain, DomainSpec, LiftStep
from bergman.jets import Jet, NonFiniteError, aexp, apow, fresh_tag
from bergman.kernels import (Kernel, closed_form_for, kernel_ball, kernel_egg,
                             kernel_egg_inflated, kernel_ball_disk_lift, kernel_ball_exp_lift,
                             kernel_chain_stage3, kernel_polydisk,
                             kernel_product, polydisk_spec)
from bergman.lifting import compose_pipeline

from finite_difference import holomorphic_derivative_fd

PI = math.pi


def test_ball_values():
    k1 = kernel_ball(1)
    assert k1((0,), (0,)) == pytest.approx(1 / PI)
    assert kernel_ball(2)((0, 0), (0, 0)) == pytest.approx(2 / PI ** 2)
    assert k1((0.5,), (0.5,)) == pytest.approx(1 / (PI * 0.5625))


def test_egg_values():
    kd = kernel_egg(1, 2.0)
    assert kd((0, 0), (0, 0)) == pytest.approx(3 / (2 * PI ** 2))
    assert kd((0.5, 0), (0.5, 0)) == pytest.approx(2.75 / (0.421875 * 2 * PI ** 2))


def test_egg_p1_is_ball():
    kd = kernel_egg(1, 1.0)
    kb = kernel_ball(2)
    worst = 0.0
    for p, q in interior_pairs(kb.domain, 200, seed=21, box_radius=0.6):
        a, b = complex(kd(p, q)), complex(kb(p, q))
        worst = max(worst, abs(a - b) / abs(b))
    assert worst < 1e-12


def test_inflated_m1_is_scalar_egg():
    ka = kernel_egg(1, 2.0)
    kb = kernel_egg_inflated(1, 1, 2.0)
    for p, q in interior_pairs(ka.domain, 50, seed=2, box_radius=0.6):
        assert complex(ka(p, q)) == pytest.approx(complex(kb(p, q)), rel=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_inflated_p1_is_ball(m):
    ki = kernel_egg_inflated(1, m, 1.0)
    kb = kernel_ball(1 + m)
    worst = 0.0
    for p, q in interior_pairs(kb.domain, 100, seed=31, box_radius=0.55):
        a, b = complex(ki(p, q)), complex(kb(p, q))
        worst = max(worst, abs(a - b) / abs(b))
    assert worst < 1e-10


def test_ball_disk_lift_values():
    k = kernel_ball_disk_lift(1, 1)
    assert k((0, 0, 0), (0, 0, 0)) == pytest.approx(4 / PI ** 3)


def test_ball_disk_lift_m0_is_ball():
    k = kernel_ball_disk_lift(2, 0)
    kb = kernel_ball(3)
    worst = 0.0
    for p, q in interior_pairs(kb.domain, 200, seed=5, box_radius=0.55):
        a, b = complex(k(p, q)), complex(kb(p, q))
        worst = max(worst, abs(a - b) / abs(b))
    assert worst < 1e-12


def test_ball_exp_lift_values():
    k = kernel_ball_exp_lift(1, 1, (1.0,))
    assert k((0, 0, 0), (0, 0, 0)) == pytest.approx(2 / PI ** 3)
    k0 = kernel_ball_exp_lift(1, 0, (1.0,))
    assert k0((0, 0), (0, 0)) == pytest.approx(1 / PI ** 2)


def test_product_values():
    disk = kernel_ball(1)
    k = kernel_product(disk, disk)
    assert k((0, 0), (0, 0)) == pytest.approx(1 / PI ** 2)
    v = complex(k((0.5, 0.5), (0.5, 0.5)))
    assert v.real == pytest.approx((1 / (PI * 0.5625)) ** 2)
    assert v.real == pytest.approx(0.32022, abs=1e-5)


def test_product_matches_polydisk():
    k = kernel_product(kernel_ball(1), kernel_ball(1))
    kp = kernel_polydisk(2)
    for p, q in interior_pairs(polydisk_spec(2), 50, seed=8, box_radius=0.7):
        assert complex(k(p, q)) == pytest.approx(complex(kp(p, q)), rel=1e-14)


def test_hermitian_symmetry_all_families():
    for name, (spec, K) in closed_form_families().items():
        worst = 0.0
        for p, q in interior_pairs(spec, 1000, seed=99, box_radius=0.6):
            a = complex(K(p, q))
            b = complex(K(q, p))
            worst = max(worst, abs(a.conjugate() - b) / max(abs(a), 1e-300))
        assert worst < 1e-13, name


def _ball_exp_lift_two_exp(n, m, gamma, p, cq):
    """kernel_ball_exp_lift as written before it reused a weight's
    exponential: aexp(G * t) taken apart from the per-weight aexp(g * t)."""
    c = math.factorial(m + n) / PI ** (m + n + 1)
    G = sum(gamma)
    t = p[-1] * cq[-1]
    sp = 0.0
    for a, b in zip(p[n:n + m], cq[n:n + m]):
        sp = sp + a * b
    rho = 1.0 - sp
    cross = 0.0
    for j, g in enumerate(gamma):
        zz = p[j] * cq[j]
        eg = aexp(g * t)
        rho = rho - eg * zz
        cross = cross + g * eg * zz
    return c * aexp(G * t) * (G * apow(rho, -(m + n + 1))
                              + (m + n + 1) * cross * apow(rho, -(m + n + 2)))


@pytest.mark.parametrize("n, m, gamma", [(1, 1, (1.0,)), (1, 2, (2.0,)), (2, 1, (0.7, 1.3))],
                         ids=["11", "12_g2", "21_no_weight_is_G"])
def test_ball_exp_lift_reused_exponential_is_bitwise(n, m, gamma):
    # one aexp fewer per row where a weight equals the weight sum G (every
    # n = 1 family); the values stay bit for bit those of the two-exp formula
    K = kernel_ball_exp_lift(n, m, gamma)
    P, Q = (np.array(side) for side in zip(*interior_pairs(K.domain, 2000, seed=17)))
    got = K(tuple(P.T), tuple(Q.T))
    want = _ball_exp_lift_two_exp(n, m, gamma, tuple(P.T), tuple(np.conj(Q).T))
    assert got.shape == (2000,)
    assert np.array_equal(got, want)


def _ball_exp_lift_apow(n, m, gamma):
    """kernel_ball_exp_lift's fn with rho^-(m+n+1) and rho^-(m+n+2) each
    taken by its own apow call."""
    c = math.factorial(m + n) / PI ** (m + n + 1)
    G = sum(gamma)

    def fn(u):
        t = u[-1]
        rho = 1.0 - sum(u[n:n + m])
        cross = 0.0
        egs = [aexp(g * t) for g in gamma]
        for zz, g, eg in zip(u, gamma, egs):
            rho = rho - eg * zz
            cross = cross + g * eg * zz
        eG = egs[gamma.index(G)] if G in gamma else aexp(G * t)
        return c * eG * (G * apow(rho, -(m + n + 1))
                         + (m + n + 1) * cross * apow(rho, -(m + n + 2)))
    return fn


def _chain_stage3_apow(p):
    """kernel_chain_stage3's fn with (v-s)^-3 and (v-s)^-4 each taken by its
    own apow call."""
    ip = 1.0 / p

    def fn(u):
        s = u[0]
        ew = aexp(u[2])
        x = ew * u[1]
        v = apow(1.0 - x, ip)
        d3 = apow(v - s, -3)
        t1 = ((1.0 + p) * v + (1.0 - p) * s) * apow(1.0 - x, -(2.0 - ip)) * d3
        t2 = ((p - 1.0) * x * ((2.0 + 2.0 * ip) * v - (2.0 - ip) * s)
              * apow(1.0 - x, -(3.0 - ip)) * d3)
        t3 = (3.0 * ip * x * ((1.0 + p) * v + (1.0 - p) * s)
              * apow(1.0 - x, -(3.0 - 2.0 * ip)) * apow(v - s, -4))
        return ew / (PI ** 3 * p) * (t1 + t2 + t3)
    return fn


@pytest.mark.parametrize("K, ref", [
    (kernel_ball_exp_lift(1, 1, (1.0,)), _ball_exp_lift_apow(1, 1, (1.0,))),
    (kernel_ball_exp_lift(2, 1, (0.7, 1.3)), _ball_exp_lift_apow(2, 1, (0.7, 1.3))),
    (kernel_chain_stage3(2.0), _chain_stage3_apow(2.0))], ids=["exp11", "exp21", "chain3"])
def test_shared_inverse_powers_are_bitwise(K, ref):
    # the larger inverse power is the smaller one times the inverse, which
    # is how apow's left-to-right product builds it: no value moves
    R = Kernel(ref, domain=K.domain)
    pairs = interior_pairs(K.domain, 1000, seed=23)
    P, Q = (tuple(np.array(side).T) for side in zip(*pairs))
    got = K(P, Q)
    assert got.shape == (1000,) and np.array_equal(got, R(P, Q))
    assert np.array_equal(K.diagonal(P), R.diagonal(P))
    scalars = [tuple(tuple(complex(c) for c in pt) for pt in pair) for pair in pairs[:100]]
    assert np.array_equal([K(p, q) for p, q in scalars], [R(p, q) for p, q in scalars])
    assert np.array_equal([K.diagonal(p) for p, _ in scalars],
                          [R.diagonal(p) for p, _ in scalars])


def test_diagonal_positive_all_families():
    for name, (spec, K) in closed_form_families().items():
        for p in interior_points(spec, 1000, seed=12, box_radius=0.8):
            assert K.diagonal(p) > 0.0, name


def test_diagonal_of_a_panel_is_the_per_point_values():
    K = kernel_ball(2)
    P = np.array([[0.1 + 0.2j, 0.3j], [0.5, -0.2 + 0.1j], [0.0, 0.0]])
    got = K.diagonal(tuple(P.T))
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert list(got) == [K.diagonal(tuple(row)) for row in P]
    assert isinstance(K.diagonal((0.1, 0.2)), float)


def test_diagonal_blowup_along_radial_path():
    for name, (spec, K) in closed_form_families().items():
        direction = np.array(interior_points(spec, 1, seed=44, box_radius=0.5)[0])
        # push the whole point radially toward the boundary
        lo, hi = 1.0, 1.0
        while True:
            hi *= 1.25
            from bergman.domains import contains
            if not contains(spec, tuple(direction * hi)):
                break
        # bisect the boundary crossing, then walk a geometric tail inward
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            from bergman.domains import contains
            if contains(spec, tuple(direction * mid)):
                lo = mid
            else:
                hi = mid
        vals = []
        for k in range(1, 40):
            s = lo * (1.0 - 2.0 ** -k)
            vals.append(K.diagonal(tuple(direction * s)))
            if vals[-1] > 1e6:
                break
        assert vals[-1] > 1e6, name
        tail = vals[-6:]
        assert all(a < b for a, b in zip(tail, tail[1:])), name


def test_jet_derivative_matches_finite_difference():
    # jet-extracted z_j derivative of every closed form vs the central
    # Cauchy-Riemann stencil, step 1e-5
    for name, (spec, K) in closed_form_families().items():
        p, q = interior_pairs(spec, 1, seed=77, box_radius=0.45)[0]
        for j in range(K.dim):
            def f(z):
                pp = list(p)
                pp[j] = z
                return complex(K(pp, q))

            tag = fresh_tag()
            pp = list(p)
            pp[j] = Jet.variable(p[j], order=1, tag=tag)
            jet = K(pp, q)
            fd, cr = holomorphic_derivative_fd(f, complex(p[j]))
            assert cr < 1e-6 * max(1.0, abs(fd)), (name, j)
            scale = max(abs(fd), abs(complex(K(p, q))))
            assert abs(jet.derivative(1) - fd) <= 1e-6 * scale, (name, j)


def test_overflow_is_an_error():
    k = kernel_ball(1)
    with pytest.raises(NonFiniteError):
        k((1 - 1e-300,), (1 - 1e-300,))


def test_stage3_hermitian():
    k = kernel_chain_stage3(2.0)
    for p, q in interior_pairs(k.domain, 100, seed=3, box_radius=0.5):
        a, b = complex(k(p, q)), complex(k(q, p))
        assert abs(a.conjugate() - b) <= 1e-13 * abs(a)


def test_closed_form_recognition():
    for name, (spec, K) in closed_form_families().items():
        found = closed_form_for(spec)
        assert found is not None, name
        p, q = interior_pairs(spec, 1, seed=15, box_radius=0.4)[0]
        assert complex(found(p, q)) == pytest.approx(complex(K(p, q)), rel=1e-12)
    # two recognition branches no family reaches, each against a lift
    # pipeline: the ball base under uniform U weights with a w block of 3,
    # and the lift-free ellipsoid |z1|^4 + |z2|^2 + |z3|^2 < 1, which is the
    # disk lifted by U weight 1/2 with a w block of 2
    ellipsoid = DomainSpec(BaseDomain(KIND_ELLIPSOID, 1, 2, (2.0, 1.0, 1.0)))
    for spec, lifted in ((egg_spec(2, 1.5, 3), egg_spec(2, 1.5, 3)),
                         (ellipsoid, egg_spec(1, 2.0, 2))):
        found = closed_form_for(spec)
        p, q = interior_pairs(spec, 1, seed=15, box_radius=0.4)[0]
        want = complex(compose_pipeline(lifted)(p, q))
        assert complex(found(p, q)) == pytest.approx(want, rel=1e-12)
    # stage-4 has no hand-coded closed form
    from bergman.catalog import chain_stage_spec
    assert closed_form_for(chain_stage_spec(4, 2.0, 1.5)) is None


# the U weights 0.01 ... 2.99; at 0.11 and 0.19 1/(1/w) lands an ulp off w
WEIGHTS = [round(0.01 * i, 2) for i in range(1, 300)]
ELL = KIND_ELLIPSOID


@pytest.mark.parametrize("spec_of", [
    lambda w: DomainSpec(BaseDomain(ELL, 1, 0, (1.0,)), (LiftStep("U", (w,), 1),)),
    lambda w: DomainSpec(BaseDomain(ELL, 2, 0, (1.0, 1.0)), (LiftStep("U", (w, w), 2),)),
    lambda w: DomainSpec(BaseDomain(ELL, 1, 0, (1.0 / w,)),
                         (LiftStep("U", (w,), 1), LiftStep("V", (0.0, 1.0), 1))),
], ids=["disk_U", "ball2_egg_k2", "stage3_base_1_over_w"])
def test_closed_form_is_labelled_with_the_spec_it_was_asked_about(spec_of):
    # the family's own spec may write the same set another way; the kernel
    # closed_form_for returns carries the spec it was given, layout and all
    for w in WEIGHTS:
        spec = spec_of(w)
        found = closed_form_for(spec)
        assert found is not None and found.domain == spec and found.dim == spec.dim, w


def test_kernel_layout_comes_from_its_domain_or_its_dim_alone():
    fn = kernel_ball(2).fn
    assert Kernel(fn, ball_spec(2)).dim == 2
    assert Kernel(fn, dim=2).dim == 2 and Kernel(fn, dim=2).domain is None
    for kwargs in ({}, {"domain": ball_spec(2), "dim": 2}):
        with pytest.raises(ValueError):
            Kernel(fn, **kwargs)
