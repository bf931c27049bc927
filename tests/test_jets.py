import cmath
import math

import numpy as np
import pytest

from bergman.jets import (Jet, BranchCutError, GammaPoleError, JetOrderError,
                          NonFiniteError, fresh_tag, pochhammer,
                          principal_power)

from finite_difference import holomorphic_derivative_fd


def test_pochhammer_values():
    assert pochhammer(2, 3) == 24.0          # 2*3*4
    assert pochhammer(1.5, 0) == 1.0         # empty product
    assert pochhammer(0.5, 2) == 0.75        # 0.5*1.5


def test_pochhammer_matches_gamma_ratio():
    for a, b in [(0.7, 5), (2.3, 8), (1.0, 12)]:
        ratio = math.gamma(a + b) / math.gamma(a)
        assert pochhammer(a, b) == pytest.approx(ratio, rel=1e-12)


def test_pochhammer_pole_rejected():
    for a in (0.0, -1.0, -2.0):
        with pytest.raises(GammaPoleError):
            pochhammer(a, 3)
    # negative non-integer anchors are fine
    assert pochhammer(-0.5, 2) == pytest.approx(-0.5 * 0.5)


def test_principal_power_trivial():
    assert principal_power(1 + 0j, 0.5) == pytest.approx(1.0)
    assert principal_power(4 + 0j, 0.5) == pytest.approx(2.0)


def test_principal_power_polar_oracle():
    # polar-form oracle: sqrt(r) * cis(theta/2), independent of exp(log(.))
    z = 1 + 1j
    r, th = abs(z), math.atan2(z.imag, z.real)
    want = math.sqrt(r) * complex(math.cos(th / 2), math.sin(th / 2))
    got = principal_power(z, 0.5)
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(1.0986841134678098 + 0.45508986056222733j, rel=1e-12)


def test_principal_power_branch_cut():
    with pytest.raises(BranchCutError):
        principal_power(-1.0 + 0j, 0.5)
    with pytest.raises(BranchCutError):
        principal_power(0j, 0.5)
    with pytest.raises(BranchCutError):
        principal_power(np.array([1.0 + 0j, -2.0 + 0j]), 0.5)


def test_principal_power_integer_vs_repeated_multiplication():
    rng = np.random.default_rng(5)
    for _ in range(50):
        b = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
        for m in (1, 2, 3, 5):
            rep = 1.0 + 0j
            for _ in range(m):
                rep *= b
            assert principal_power(b, m) == pytest.approx(rep, rel=1e-13)


# ---------------------------------------------------------------------------
# jets


def _random_jet(rng, order=2, tag=0):
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(order + 1)]
    return Jet(coeffs, tag)


def test_jet_coefficient_set_is_complete():
    j = Jet.variable(0.3 + 0j, order=2)
    k = j * j + j
    assert len(k.coeffs) == 3
    assert k.coeffs == pytest.approx([0.39, 1.6, 1.0], rel=1e-15)


def test_jet_product_is_leibniz_convolution():
    rng = np.random.default_rng(7)
    a = _random_jet(rng)
    b = _random_jet(rng)
    prod = a * b
    for n in range(3):
        conv = 0j
        for i in range(n + 1):
            conv += a.coeffs[i] * b.coeffs[n - i]
        assert prod.coefficient(n) == pytest.approx(conv, rel=1e-14, abs=1e-14)


def _assert_jets_close(lhs, rhs, tol):
    assert len(lhs.coeffs) == len(rhs.coeffs)
    for u, v in zip(lhs.coeffs, rhs.coeffs):
        assert u == pytest.approx(v, rel=tol, abs=tol)


def test_jet_mul_commutative_associative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (_random_jet(rng) for _ in range(3))
        _assert_jets_close(a * b, b * a, 1e-14)
        _assert_jets_close((a * b) * c, a * (b * c), 1e-13)


def test_jet_algebra_identities():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = _random_jet(rng)
        b = _random_jet(rng)
        # exp is a homomorphism of the truncated algebra
        _assert_jets_close((a + b).exp(), a.exp() * b.exp(), 1e-13)
        # reciprocal is multiplicative and involutive
        a = a + 2.0   # keep the constant term away from zero
        _assert_jets_close(a.reciprocal().reciprocal(), a, 1e-12)
        _assert_jets_close((a * b.exp()).reciprocal(),
                           a.reciprocal() * b.exp().reciprocal(), 1e-12)


def test_jet_elementary_functions_derivative():
    z0 = 0.8 + 0.3j
    seed = Jet.variable(z0, order=2)
    cases = [
        (seed.reciprocal(), 1.0 / z0, -1.0 / z0 ** 2),
        (seed.exp(), cmath.exp(z0), cmath.exp(z0)),
        (seed ** 2.5, z0 ** 2.5, 2.5 * z0 ** 1.5),
    ]
    for jet, val, dval in cases:
        assert jet.value() == pytest.approx(val, rel=1e-13)
        assert jet.derivative(1) == pytest.approx(dval, rel=1e-12)


def test_jet_power_second_derivative():
    z0 = 1.3 - 0.4j
    seed = Jet.variable(z0, order=3)
    out = seed ** 1.7
    assert out.derivative(2) == pytest.approx(1.7 * 0.7 * z0 ** -0.3, rel=1e-12)
    assert out.derivative(3) == pytest.approx(1.7 * 0.7 * (-0.3) * z0 ** -1.3,
                                              rel=1e-12)


def test_jet_order16_matches_closed_form_taylor_coefficients():
    # no order cap: the recurrences against e^{z0}/n!, (-1)^n/z0^(n+1) and
    # the binomial series C(e, n) z0^(e-n) of (z0 + s)^e
    z0, e = 0.8 + 0.3j, 2.5
    seed = Jet.variable(z0, order=16)
    binom = 1.0
    jets = (seed.exp(), seed.reciprocal(), seed ** e)
    assert [len(j.coeffs) for j in jets] == [17] * 3
    for n, got in enumerate(zip(*(j.coeffs for j in jets))):
        want = (cmath.exp(z0) / math.factorial(n), (-1) ** n / z0 ** (n + 1),
                binom * z0 ** (e - n))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * abs(w)
        binom *= (e - n) / (n + 1)


def test_jet_derivative_matches_finite_difference():
    z0 = 0.4 + 0.2j

    def f(z):
        return cmath.exp(z) / (1.0 + z * z)

    seed = Jet.variable(z0, order=1)
    jet = seed.exp() / (1.0 + seed * seed)
    fd, cr_resid = holomorphic_derivative_fd(f, z0)
    assert cr_resid < 1e-6
    assert jet.derivative(1) == pytest.approx(fd, rel=1e-6)


def test_jet_coefficient_index_range():
    j = Jet.variable(0.5 + 0j, order=2)
    for i in (3, 4, -1):
        with pytest.raises(JetOrderError):
            j.coefficient(i)
    with pytest.raises(JetOrderError):
        j.derivative(3)


def test_nested_tags_keep_directions_independent():
    # f(x, y) = x * y with independent perturbation directions
    t1, t2 = fresh_tag(), fresh_tag()
    x = Jet.variable(2.0 + 0j, order=1, tag=t1)
    y = Jet.variable(3.0 + 0j, order=1, tag=t2)
    f = x * y
    # higher tag is outermost
    assert isinstance(f, Jet) and f.tag == t2
    inner_df_dy = f.coefficient(1)          # d f / d y = x (still a jet)
    assert isinstance(inner_df_dy, Jet) and inner_df_dy.tag == t1
    assert inner_df_dy.value() == pytest.approx(2.0)
    assert inner_df_dy.coefficient(1) == pytest.approx(1.0)  # d2 f / dx dy
    assert f.value().value() == pytest.approx(6.0)              # f itself



def test_jet_sum_with_lower_tag_on_the_left_nests_it():
    # x + y hands the sum to y, the higher tag, as x * y does
    t1, t2 = fresh_tag(), fresh_tag()
    x = Jet.variable(2.0 + 0j, order=1, tag=t1)
    y = Jet.variable(3.0 + 0j, order=1, tag=t2)
    s = x + y
    assert s.tag == t2 and s.coefficient(1) == 1.0
    inner = s.value()
    assert isinstance(inner, Jet) and inner.tag == t1
    assert inner.coeffs == [5.0, 1.0]


def test_jet_scalar_division_and_integer_powers():
    z0 = 0.5 + 0.25j
    x = Jet.variable(z0, order=2)
    # 2 / (z0 + s) = 2/z0 - 2 s/z0^2 + 2 s^2/z0^3
    assert (2.0 / x).coeffs == pytest.approx([2 / z0, -2 / z0 ** 2, 2 / z0 ** 3], rel=1e-14)
    assert (x ** 2).coeffs == pytest.approx([z0 * z0, 2 * z0, 1.0], rel=1e-15)
    assert (x ** -1).coeffs == x.reciprocal().coeffs
    assert x ** 0 == 1.0 and type(x ** 0) is float
