import cmath
import hashlib
import math
import re
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from bergman import oracle
from bergman.catalog import (ball_spec, chain_stage_spec, closed_form_families, egg_spec,
                             disk_spec, ball_disk_lift_spec, ball_exp_lift_spec, interior_pairs,
                             polydisk_spec)
from bergman.domains import BaseDomain, DomainSpec, LiftStep, SpecError, spec_from_dict
from bergman.kernels import (Kernel, closed_form_for, kernel_ball, kernel_ball_disk_lift,
                             kernel_ball_exp_lift, kernel_chain_stage3, kernel_egg)
from bergman.jets import NonFiniteError, pochhammer
from bergman.lifting import lift_U
from bergman.oracle import (ConvergenceError, IntegrationError, NormTable,
                            _de_integrate, dirichlet_identity_check,
                            get_norm_table, monomial_norm_full, reproducing_check,
                            reproducing_integral, series_kernel,
                            simplex_weighted_integral)

PI = math.pi


def test_disk_norms():
    assert monomial_norm_full(disk_spec(), (1,))[0] == pytest.approx(PI / 2, rel=1e-10)
    assert monomial_norm_full(disk_spec(), (0,))[0] == pytest.approx(PI, rel=1e-12)


def test_quartic_fiber_norm():
    # |z|^4 + |w|^2 < 1, monomial z w
    val = monomial_norm_full(egg_spec(1, 2.0), (1, 1))[0]
    assert val == pytest.approx(PI ** 2 / 12, rel=1e-9)
    assert val == pytest.approx(0.82247, abs=1e-5)


def test_ball_norm_against_factorial_oracle():
    # ||z^a||^2 on the unit ball B^d = pi^d a! / (d + |a|)!
    for d, a in ((2, (1, 2)), (3, (0, 1, 1))):
        want = PI ** d
        for aj in a:
            want *= math.factorial(aj)
        want /= math.factorial(d + sum(a))
        assert monomial_norm_full(ball_spec(d), a)[0] == pytest.approx(want, rel=1e-9)


def test_v_lift_norm_against_gamma_oracle():
    # sum e^{|w|^2}|z|^2 + |z'|^2 < 1: peel the w factor exactly
    spec = ball_exp_lift_spec(1, 1, (1.0,))
    a, b, c = 1, 2, 3
    lam = float(a + 1)
    w_factor = math.factorial(c) / lam ** (c + 1)
    base = PI ** 2 * math.factorial(a) * math.factorial(b) / math.factorial(2 + a + b)
    want = PI * w_factor * base
    assert monomial_norm_full(spec, (a, b, c))[0] == pytest.approx(want, rel=1e-9)


def test_norm_symmetry_under_coordinate_swap():
    for spec in (ball_spec(2), polydisk_spec(2)):
        x = monomial_norm_full(spec, (2, 1))[0]
        y = monomial_norm_full(spec, (1, 2))[0]
        assert x == pytest.approx(y, rel=1e-10)


def test_norm_positive_and_errors_reported():
    value, error = monomial_norm_full(ball_disk_lift_spec(1, 1), (2, 1, 3))
    assert value > 0
    assert error >= 0


def test_mc_norm_for_high_dimension():
    # ball in C^4: the separable rule covers any base dimension, checked
    # against the factorial oracle
    spec = ball_spec(4)
    idx = (1, 0, 2, 0)
    value, _ = monomial_norm_full(spec, idx)
    want = PI ** 4 * 1 * 2 / math.factorial(4 + 3)
    assert value == pytest.approx(want, rel=1e-9)


def test_simplex_integral_high_dimension_against_factorial_oracle():
    # int_{B^k_+} (1 - sum r)^s r^c dV = prod c_j! / (1+s)_{sum c + k}
    for k in range(5, 9):
        for s in (0.0, 1.5, 3.0):
            c = tuple((3 * j) % 5 for j in range(k))
            want = math.prod(math.factorial(cj) for cj in c) / pochhammer(1.0 + s, sum(c) + k)
            got, err = simplex_weighted_integral(s, c)
            assert got == pytest.approx(want, rel=1e-12)
            assert err <= 1e-9 * got


def test_simplex_integral_rejects_bad_exponents():
    with pytest.raises(IntegrationError, match="^non-integrable radial exponent$"):
        simplex_weighted_integral(1.0, (2.0, -1.0))
    with pytest.raises(IntegrationError, match="^negative simplex weight exponent$"):
        simplex_weighted_integral(-0.5, (1.0,))


# a V-step with three w coordinates and a non-integer moment base s
V_WDIM3 = spec_from_dict({"base": {"kind": "GeneralizedComplexEllipsoid", "exponents": [1.0, 2.0],
                                   "n_star": 2, "m_passive": 0},
                          "lifts": [{"kind": "V", "weights": [0.7, 1.3], "w_dim": 3}]})

# (spec, index, norm, error): the digits of the scalar per-index loop the
# array routine replaced, which it must reproduce bit for bit
PINNED_NORMS = {
    "disk": (disk_spec(), (3,), 0.78539816339744828, 1.7439342490043159e-16),
    "polydisk3": (polydisk_spec(3), (1, 2, 3), 1.2919281950124926, 2.8686568565305771e-16),
    "egg_inflated_p2": (closed_form_families()["egg_inflated_p2"][0], (2, 1, 3),
                        0.0058738349281509256, 2.0490406118075548e-18),
    "ball_disk_lift_11": (ball_disk_lift_spec(1, 1), (2, 1, 3),
                          0.0036912234143214079, 9.6048778678479165e-19),
    "ball_exp_lift_11": (ball_exp_lift_spec(1, 1, (1.0,)), (2, 1, 3),
                         0.038279353926296077, 5.3123275120936617e-18),
    "stage6": (chain_stage_spec(6), (2, 1, 1, 0, 1, 2),
               0.020952145441327327, 2.3261554284256614e-18),
    "v_wdim3": (V_WDIM3, (2, 1, 3, 2, 4), 3.1605037814863416e-05, 3.5088640676210118e-21),
}


@pytest.mark.parametrize("name", PINNED_NORMS)
def test_norm_and_error_pinned_bitwise(name):
    spec, idx, value, error = PINNED_NORMS[name]
    assert monomial_norm_full(spec, idx) == (value, error)
    table = NormTable.build(spec, sum(idx))
    row = table.exponents.tolist().index(list(idx))
    assert (table.norms[row], table.errors[row]) == (value, error)


@pytest.mark.parametrize("spec, cap, digest", [
    (V_WDIM3, 10, "71fb39a051006bdc"),
    (chain_stage_spec(6), 8, "7c695c0001a35e8b"),
    (closed_form_families()["egg_inflated_p2"][0], 20, "55aed363e3eae11d"),
    (egg_spec(2, 1.5, 3), 10, "5197252dae5e89dc"),
], ids=["v_wdim3", "stage6", "egg_inflated_p2", "u_wdim3"])
def test_norm_table_digest_pinned(spec, cap, digest):
    # every norm and error of the table, as the scalar per-index loop gave them
    table = NormTable.build(spec, cap)
    got = hashlib.sha256(table.norms.tobytes() + table.errors.tobytes()).hexdigest()
    assert got[:16] == digest


@pytest.mark.parametrize("spec", [polydisk_spec(2), closed_form_families()["egg_inflated_p2"][0],
                                  ball_exp_lift_spec(1, 1, (1.0,)), chain_stage_spec(4)],
                         ids=["polydisk2", "egg_inflated_p2", "ball_exp_lift_11", "stage4"])
def test_norm_table_rows_equal_one_row_norms(spec):
    table = NormTable.build(spec, 12)
    for idx, value, error in zip(table.exponents.tolist(), table.norms, table.errors):
        e = monomial_norm_full(spec, idx)
        assert e == (value, error), idx
        assert table.entries[tuple(idx)] == e
    assert len(table.entries) == len(table.norms)
    # the cap-12 rows are the first rows of the cap-20 table, bit for bit
    big = NormTable.build(spec, 20)
    n = len(table.norms)
    assert big.offsets[:14] == table.offsets
    assert big.exponents[:n].tobytes() == table.exponents.tobytes()
    assert big.norms[:n].tobytes() == table.norms.tobytes()
    assert big.errors[:n].tobytes() == table.errors.tobytes()


@pytest.mark.parametrize("weight", [1e-300, 1e200])
def test_unrepresentable_gaussian_moment_raises_integration_error(weight):
    # c!/s^(c+1) at c = 1: s^2 underflows to 0 (1e-300) or overflows (1e200)
    spec = spec_from_dict({"base": {"kind": "GeneralizedComplexEllipsoid", "exponents": [1.0],
                                    "n_star": 1, "m_passive": 0},
                           "lifts": [{"kind": "V", "weights": [weight], "w_dim": 1}]})
    msg = re.escape("norm integral collapsed for index (0, 1)")
    with pytest.raises(IntegrationError, match=msg):
        NormTable.build(spec, 4)
    with pytest.raises(IntegrationError, match=msg):
        monomial_norm_full(spec, (0, 1))
    assert monomial_norm_full(spec, (1, 0))[0] > 0


def test_de_integrate_raises_when_not_converged():
    with pytest.raises(IntegrationError):
        _de_integrate(lambda u, um1: np.cos(1e4 * u))


def test_series_disk_value():
    sv = series_kernel(disk_spec(), (0.5,), (0.5,), 40)
    assert abs(sv.value - 1 / (PI * 0.75 ** 2)) < 1e-6
    assert sv.tail_bound < 1e-4


def test_series_constant_term_only():
    sv = series_kernel(ball_spec(2), (0, 0), (0, 0), 0)
    assert sv.value == pytest.approx(2 / PI ** 2)
    assert sv.cap_used == 0


def test_series_matches_exp_lift_closed_form():
    spec = ball_exp_lift_spec(1, 1, (1.0,))
    K = kernel_ball_exp_lift(1, 1, (1.0,))
    p = (0.3, 0.4, 0.5)
    sv = series_kernel(spec, p, p, 50)
    v = K.diagonal(p)
    assert abs(complex(sv.value) - v) / v < 1e-3


def test_series_diagonal_real_positive_monotone(monkeypatch):
    monkeypatch.setattr(oracle, "SHELL_TOL", 0.0)
    spec = ball_disk_lift_spec(1, 1)
    table = get_norm_table(spec, 24)
    p = (0.2, 0.3, 0.4)
    prev = 0.0
    for cap in range(0, 24, 4):
        sv = series_kernel(spec, p, p, cap, table=table)
        assert abs(complex(sv.value).imag) < 1e-15
        assert complex(sv.value).real >= prev - 1e-15
        prev = complex(sv.value).real
    assert prev > 0


def test_series_detects_nonconvergence_near_boundary():
    with pytest.raises(ConvergenceError):
        series_kernel(disk_spec(), (0.995,), (0.995,), 30)


def test_series_rejects_bad_arity():
    with pytest.raises(SpecError):
        series_kernel(disk_spec(), (0.1, 0.2), (0.1, 0.2), 5)


def test_reproducing_disk_mean_value():
    r = reproducing_check(kernel_ball(1), disk_spec(), [(0,)], (0.0,))
    assert r[(0,)] < 1e-6


def test_reproducing_disk_lift_monomial():
    r = reproducing_check(kernel_ball_disk_lift(1, 1), ball_disk_lift_spec(1, 1), [(1, 0, 1)],
                          (0.2, 0.1, 0.3))
    assert r[(1, 0, 1)] < 1e-3


def test_reproducing_flags_perturbed_kernel():
    K = kernel_ball_disk_lift(1, 1).scaled(1.01)
    r = reproducing_check(K, ball_disk_lift_spec(1, 1), [(1, 0, 1)], (0.2, 0.1, 0.3))
    assert r[(1, 0, 1)] == pytest.approx(0.01, rel=0.05)


def test_reproducing_requires_interior_point():
    with pytest.raises(SpecError):
        reproducing_check(kernel_ball(1), disk_spec(), [(0,)], (1.5,))


def _counted(K, log, record=lambda u: 1):
    """K as a Kernel whose fn appends record(u) to log, then calls K.fn."""
    def fn(u):
        log.append(record(u))
        return K.fn(u)
    return Kernel(fn, K.n, K.m, K.w_dims, domain=K.domain)


def test_reproducing_check_above_three_coordinates_raises_at_once():
    # a 4-coordinate spec is beyond the polar quadrature: the check raises
    # before any kernel value is computed
    calls = []
    counted = _counted(kernel_ball_disk_lift(2, 1), calls)
    with pytest.raises(IntegrationError, match="up to 3 coordinates"):
        reproducing_check(counted, ball_disk_lift_spec(2, 1), [(1, 0, 0, 1)],
                          (0.2, 0.1, 0.1, 0.3))
    assert not calls


def _lattice_sums(K, spec, idxs, p, n_rad, de_level, n_ang):
    """Brute-force lattice means of K(p; q-bar) q^idx over every radial node
    and lattice point, one point at a time: angles from Python integers,
    phases from cmath, sums by math.fsum.  Returns the full-lattice and
    even-point (half-lattice) values."""
    z = [zc % n_ang for zc in oracle.LATTICE_GENERATORS[spec.dim]]
    radii, weights = oracle._radial_nodes(spec, n_rad, de_level)
    terms = {idx: ([], []) for idx in idxs}
    for r, w in zip(radii.tolist(), weights.tolist()):
        for i in range(n_ang):
            theta = [2 * PI * ((i * zc) % n_ang) / n_ang for zc in z]
            kv = complex(K(p, tuple(rc * cmath.exp(1j * t) for rc, t in zip(r, theta))))
            for idx in idxs:
                mono = math.prod(rc ** e for rc, e in zip(r, idx))
                term = w * mono * kv * cmath.exp(1j * sum(e * t for e, t in zip(idx, theta)))
                terms[idx][0].append(term)
                if i % 2 == 0:
                    terms[idx][1].append(term)

    def mean(ts, count):
        return complex(math.fsum(t.real for t in ts), math.fsum(t.imag for t in ts)) / count

    return ({idx: mean(full, n_ang) for idx, (full, _) in terms.items()},
            {idx: mean(half, n_ang // 2) for idx, (_, half) in terms.items()})


def _grid(monkeypatch, n_rad, n_rad_check, n_ang=oracle.N_ANG):
    """Set a smaller reproducing_integral grid; monkeypatch undoes it."""
    monkeypatch.setattr(oracle, "N_RAD", n_rad)
    monkeypatch.setattr(oracle, "N_RAD_CHECK", n_rad_check)
    monkeypatch.setattr(oracle, "N_ANG", n_ang)


def test_reproducing_integral_matches_brute_force_lattice_sum(monkeypatch):
    spec = ball_disk_lift_spec(1, 1)
    K = kernel_ball_disk_lift(1, 1)
    p = (0.2 + 0.1j, 0.1, 0.3 - 0.2j)
    idxs = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    # 32 is the smallest lattice on which these seven bins do not alias
    _grid(monkeypatch, 4, 3, 32)
    vals, errs = reproducing_integral(K, spec, idxs, p)
    full, half = _lattice_sums(K, spec, idxs, p, 4, oracle.DE_LEVEL, 32)
    check, _ = _lattice_sums(K, spec, idxs, p, 3, oracle.DE_LEVEL_CHECK, 32)
    for idx in idxs:
        assert abs(vals[idx] - full[idx]) <= 1e-13
        want_err = abs(full[idx] - check[idx]) + abs(full[idx] - half[idx])
        assert abs(errs[idx] - want_err) <= 1e-13


def _one_sided_alias_degree(z, n, max_degree, bound=400):
    """Smallest total degree of a mode a >= 0 with a.z = alpha.z (mod n) and
    a != alpha, over the bins alpha of degree <= max_degree.  With z_1 = 1,
    each tail (a_2, ..., a_d) fixes the least a_1; every tail of degree up
    to bound is scanned, so a result <= bound is exact."""
    d = len(z)
    z = np.array(z) % n
    tails = [t for t in product(range(bound + 1), repeat=d - 1) if sum(t) <= bound]
    tails = np.array(tails, dtype=np.int64).reshape(len(tails), d - 1)
    best = None
    for alpha in product(range(max_degree + 1), repeat=d):
        if sum(alpha) > max_degree:
            continue
        a1 = (int(np.dot(alpha, z)) - tails @ z[1:]) % n
        a1[(a1 == alpha[0]) & np.all(tails == alpha[1:], axis=1)] += n
        deg = int((a1 + tails.sum(axis=1)).min())
        best = deg if best is None else min(best, deg)
    return best


def test_lattice_generators_alias_degrees():
    gens = oracle.LATTICE_GENERATORS
    assert all(z[0] == 1 for z in gens.values())
    want = {1: (2, {2048: 2048, 512: 512, 256: 256}),
            2: (4, {2048: 293, 512: 74, 256: 37}),
            3: (2, {2048: 128, 512: 32, 256: 16})}
    assert oracle.N_ANG in want[3][1]
    for d, (max_degree, degrees) in want.items():
        for n, deg in degrees.items():
            assert _one_sided_alias_degree(gens[d], n, max_degree) == deg, (d, n)


def test_reproducing_integral_repeated_index_counts_once(monkeypatch):
    spec = ball_disk_lift_spec(1, 1)
    K = kernel_ball_disk_lift(1, 1)
    p = (0.2, 0.1, 0.3)
    _grid(monkeypatch, 4, 3, 8)
    once = reproducing_integral(K, spec, [(1, 0, 0)], p)
    twice = reproducing_integral(K, spec, [(1, 0, 0), (0, 0, 1), (1, 0, 0)], p)
    assert twice[0][(1, 0, 0)] == once[0][(1, 0, 0)]
    assert twice[1][(1, 0, 0)] == once[1][(1, 0, 0)]
    assert list(twice[0]) == [(1, 0, 0), (0, 0, 1)]


# radial nodes per pass at 8 and 5 Gauss nodes per chain factor: Jacobi on
# the two sticks of a ball base or Legendre on a one-coordinate base, Jacobi
# on a U-step, 2 more Laguerre nodes on a V-step
@pytest.mark.parametrize("K, n_nodes", [
    (kernel_ball_disk_lift(1, 1), 8 * 8 * 8 + 5 * 5 * 5),
    (kernel_ball_exp_lift(1, 1, (1.0,)), 8 * 8 * 10 + 5 * 5 * 7),
    (kernel_chain_stage3(2.0), 8 * 8 * 10 + 5 * 5 * 7)], ids=["disk", "exp", "chain3"])
def test_reproducing_blocks_match_default_pass(K, n_nodes, monkeypatch):
    idxs = [tuple(i) for i in oracle.exponent_matrix(3, 2).tolist()]
    p = (0.2 + 0.1j, 0.1, 0.3 - 0.2j)
    _grid(monkeypatch, 8, 5)
    vals, errs = reproducing_integral(K, K.domain, idxs, p)
    rows = []
    counted = _counted(K, rows, lambda u: u[0].size)
    # one radial node per call, then 3 per call with a partial last block
    for budget in (512, 3 * 512):
        monkeypatch.setattr(oracle, "POLAR_ROWS", budget)
        rows.clear()
        got, got_errs = reproducing_integral(counted, K.domain, idxs, p)
        assert max(rows) <= budget and sum(rows) == n_nodes * 512
        for idx in idxs:
            assert abs(got[idx] - vals[idx]) <= 1e-13 * abs(vals[idx])
            assert abs(got_errs[idx] - errs[idx]) <= 1e-13 * max(1.0, abs(vals[idx]))


# (a, b) of the Gauss-Jacobi rules for u^a (1-u)^b the chain factors use:
# Legendre on a uniform base coordinate, a ball base's last and first
# sticks, and the U-steps of chain stages 2, 4 and 5 in s = (1-t)^(1/L),
# whose weights 1/2, 3/2 and 5/4 give L = 2, 2, 4 and a = L(A+1) - 1; then
# a U-step with a w block of 2 (egg_inflated_p2) and a fractional pair
JACOBI_PARAMETERS = [(0.0, 0.0), (0.0, 1.0), (2.0, 0.0), (4.0, 0.0), (8.0, 0.0),
                     (2.0, 1.0), (0.5, 2.5)]


@pytest.mark.parametrize("n", [oracle.N_RAD, oracle.N_RAD_CHECK])
def test_gauss_rules_integrate_beta_and_gamma_moments(n):
    assert [oracle._lift_power(step.weights) for step in chain_stage_spec(6).lifts
            if step.kind == "U"] == [2, 2, 4]
    for a, b in JACOBI_PARAMETERS:
        u, w = oracle._gauss_rule(n, a, b)
        for j in range(2 * n):
            want = (math.gamma(a + 1 + j) * math.gamma(a + b + 2)
                    / (math.gamma(a + 1) * math.gamma(a + b + 2 + j)))
            assert abs(math.fsum(w * u ** j) - want) <= 1e-13 * want, (a, b, j)
    # generalized Laguerre, 2 more nodes, for V-steps with w blocks of 1 and 2
    for a in (0.0, 1.0):
        t, w = oracle._gauss_rule(n + 2, a)
        for j in range(2 * (n + 2)):
            want = math.gamma(a + 1 + j) / math.gamma(a + 1)
            assert abs(math.fsum(w * t ** j) - want) <= 1e-13 * want, (a, j)


def test_lift_power_reads_exact_binary_fractions():
    assert oracle._lift_power((0.375, 1.25, 0.0)) == 8
    assert oracle._lift_power((2.0 ** -6,)) == oracle.MAX_LIFT_POWER == 64
    # none of these floats is a fraction of small denominator: no rounding
    for a in (math.sqrt(0.5), 0.1, 1 / 3, 2.0 ** -7):
        assert oracle._lift_power((1.0, a)) is None, a


def test_reproducing_fallback_on_an_irrational_weight():
    # no lift power: the U-step's factor takes the tanh-sinh rule
    K = lift_U(kernel_ball(2, n_star=1), (math.sqrt(0.5),), 1)
    p = (0.3, 0.2 + 0.1j, 0.25)
    idxs = [tuple(i) for i in oracle.exponent_matrix(3, 2).tolist()]
    vals, errs = reproducing_integral(K, K.domain, idxs, p)
    for idx in idxs:
        target = math.prod(complex(c) ** e for c, e in zip(p, idx))
        res = abs(vals[idx] - target)
        assert res / max(abs(target), 1e-6) < 1e-3, idx
        assert errs[idx] >= res, idx


@pytest.mark.parametrize("K, p, tol", [
    (kernel_egg(1, 4.0), (0.3, 0.2 - 0.1j), 1e-10),
    (closed_form_for(DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (4.0, 1.0)))),
     (0.3, 0.2 - 0.1j), 1e-8)], ids=["egg_p4", "ellipsoid41"])
def test_reproducing_on_bases_of_large_exponent(K, p, tol):
    # the norm route's ellipsoid base factor does not converge at p = 4;
    # the quadrature takes the base shadow's volume without it
    idxs = [(a, c) for a in range(3) for c in range(3)]
    for idx, res in reproducing_check(K, K.domain, idxs, p).items():
        assert res < tol, idx


@pytest.mark.parametrize("spec, tol", [
    (chain_stage_spec(2), 1e-13), (ball_disk_lift_spec(1, 1), 1e-13), (polydisk_spec(2), 1e-13),
    (closed_form_families()["egg_inflated_p2"][0], 1e-13),
    # tanh-sinh factors: an ellipsoid base of two exponents, an irrational weight
    (DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (2.0, 3.0))), 1e-9),
    (DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 1, 1, (1.0, 1.0)),
                (LiftStep("U", (math.sqrt(0.5),)),)), 1e-8),
    # Laguerre nodes do not integrate the V-step factors e^(-a t) exactly
    (chain_stage_spec(3), 1e-4)],
    ids=["stage2", "ball_disk_lift", "polydisk2", "egg_inflated_p2", "ellipsoid23",
         "irrational", "stage3"])
def test_radial_nodes_integrate_monomial_norms(spec, tol):
    # sum of weight x |z^a|^2 over the chain nodes against the norm oracle
    radii, weights = oracle._radial_nodes(spec, oracle.N_RAD, oracle.DE_LEVEL)
    for a in oracle.exponent_matrix(spec.dim, 3):
        want = monomial_norm_full(spec, a)[0]
        got = math.fsum(weights * np.prod(radii ** (2 * a), axis=1))
        assert abs(got - want) <= tol * want, a


def test_reproducing_pass_memory_is_bounded():
    K = kernel_ball_disk_lift(1, 1)
    tracemalloc.start()
    try:
        reproducing_integral(K, K.domain, [(0, 0, 0), (1, 0, 1)], (0.2, 0.1, 0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_reproducing_integral_rejects_bad_arguments():
    spec = ball_disk_lift_spec(1, 1)
    K = kernel_ball_disk_lift(1, 1)
    p = (0.2, 0.1, 0.3)
    with pytest.raises(SpecError):
        reproducing_integral(K, spec, [(-1, 0, 0)], p)
    with pytest.raises(SpecError):
        reproducing_integral(K, spec, [(0, 0, 0), (0, -2, 1)], p)
    # the pass feeds K.fn directly, so a point or kernel of another arity
    # is refused before any kernel value is computed
    with pytest.raises(SpecError):
        reproducing_integral(K, spec, [(0, 0, 0)], p[:2])
    with pytest.raises(SpecError):
        reproducing_integral(kernel_ball(2), spec, [(0, 0, 0)], p)


def test_reproducing_integral_rejects_aliased_indices(monkeypatch):
    K = kernel_ball_disk_lift(1, 1)
    calls = []
    counted = _counted(K, calls)
    # on 16 points the 3-d generator is (1, 12, 0): bin (0, 0, 1) lands on (0, 0, 0)
    _grid(monkeypatch, 2, 1, 16)
    with pytest.raises(IntegrationError):
        reproducing_integral(counted, K.domain, [(0, 0, 0), (0, 0, 1)], (0.2, 0.1, 0.3))
    assert not calls
    _grid(monkeypatch, 2, 1, 32)
    reproducing_integral(counted, K.domain, [(0, 0, 0), (0, 0, 1)], (0.2, 0.1, 0.3))
    assert calls


def test_reproducing_integral_empty_indices_skip_the_kernel(monkeypatch):
    calls = []
    counted = _counted(kernel_ball_disk_lift(1, 1), calls)
    assert reproducing_integral(counted, ball_disk_lift_spec(1, 1), [], (0.2, 0.1, 0.3)) == ({}, {})
    assert not calls
    _grid(monkeypatch, 2, 1, 4)
    reproducing_integral(counted, ball_disk_lift_spec(1, 1), [(0, 0, 0)], (0.2, 0.1, 0.3))
    assert calls


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, 0.0)],
                         ids=["inf", "nan"])
def test_reproducing_integral_raises_on_non_finite_kernel_values(bad, monkeypatch):
    # the kernel is finite everywhere but on three lattice rows of its first
    # block; the pass still reads every block, then raises
    K = kernel_ball_disk_lift(1, 1)
    calls = []

    def fn(u):
        v = np.array(K.fn(u))
        if not calls:
            v[0, [1, 5, 9]] = bad
        calls.append(1)
        return v

    _grid(monkeypatch, 4, 3, 32)
    monkeypatch.setattr(oracle, "POLAR_ROWS", 64)
    with pytest.raises(NonFiniteError):
        reproducing_integral(Kernel(fn, K.n, K.m, K.w_dims, domain=K.domain), K.domain,
                             [(0, 0, 0), (1, 0, 1)], (0.2, 0.1, 0.3))
    assert len(calls) > 1


def test_dirichlet_trivial_cases():
    q, c = dirichlet_identity_check(1.0, (0,))
    assert q == pytest.approx(PI / 2, rel=1e-12)
    assert c == pytest.approx(PI / 2, rel=1e-15)
    q, c = dirichlet_identity_check(1.0, (0, 0))
    assert q == pytest.approx(PI ** 2 / 6, rel=1e-12)
    assert c == pytest.approx(PI ** 2 / 6, rel=1e-15)


def test_dirichlet_fractional_weight():
    q, c = dirichlet_identity_check(1.5, (1, 0))
    assert abs(q - c) / c < 1e-8


def test_dirichlet_k4_supported():
    q, c = dirichlet_identity_check(2.2, (1, 0, 2, 1))
    assert abs(q - c) / c < 1e-8
    for k in range(5, 9):
        q, c = dirichlet_identity_check(1.3, tuple(j % 3 for j in range(k)))
        assert abs(q - c) / c < 1e-8, k
    with pytest.raises(ValueError):
        dirichlet_identity_check(1.0, ())


def test_norm_table_lexicographic_and_positive():
    table = NormTable.build(polydisk_spec(2), 4)
    assert all(value > 0 for value, _ in table.entries.values())
    assert table.degree_cap() == 4


def test_series_agreement_panel_all_families():
    # every hand-coded closed form vs the series oracle at a seeded panel
    for name, (spec, K) in closed_form_families().items():
        table = get_norm_table(spec, 30)
        for p, q in interior_pairs(spec, 5, seed=2024):
            sv = series_kernel(spec, p, q, 30, table=table)
            v = complex(K(p, q))
            assert abs(v - sv.value) / abs(v) < 1e-3, name
            assert sv.tail_bound < 1e-4, name


def test_series_matches_closed_form_to_round_off_near_origin(monkeypatch):
    # the 1e-3 gate would miss a slipped exponent column or shell offset
    # (the egg and the lift are not symmetric in their coordinates, so a
    # permuted column shows there); SHELL_TOL 0 sums every shell to the cap
    monkeypatch.setattr(oracle, "SHELL_TOL", 0.0)
    for name in ("disk", "disk_x_disk", "ball2", "egg_p2", "ball_disk_lift_11"):
        spec, K = closed_form_families()[name]
        table = get_norm_table(spec, 30)
        for p, q in interior_pairs(spec, 5, seed=7, box_radius=0.25):
            sv = series_kernel(spec, p, q, 30, table=table)
            assert sv.cap_used == 30, name
            v = complex(K(p, q))
            assert sv.tail_bound < 1e-14, name
            assert abs(sv.value - v) / abs(v) < 1e-12, name


def test_series_shell_overflow_is_non_finite():
    # two degree-1 terms of 1e308 each: the shell sum overflows
    table = NormTable(polydisk_spec(2), [(0, 0), (1, 0), (0, 1)],
                      [1.0, 0.25e-308, 0.25e-308], [0.0] * 3)
    with pytest.raises(NonFiniteError):
        series_kernel(polydisk_spec(2), (0.5, 0.5), (0.5, 0.5), 1, table=table)
    # one term that is already infinite
    table = NormTable(disk_spec(), [(0,), (1,)], [1.0, 1e-320], [0.0, 0.0])
    with pytest.raises(NonFiniteError):
        series_kernel(disk_spec(), (0.5,), (0.5,), 1, table=table)


def _series_one_pass(spec, p, q, degree_cap, table, shell_tol=1e-9):
    """series_kernel as one numpy pass over every term up to the cap."""
    p = tuple(complex(c) for c in p)
    q = tuple(complex(c) for c in q)
    n = table.offsets[degree_cap + 1]
    pows = np.ones((spec.dim, degree_cap + 1), dtype=complex)
    pows[:, 1:] = np.array([pj * qj.conjugate() for pj, qj in zip(p, q)])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        pows = np.cumprod(pows, axis=1)
        terms = pows[np.arange(spec.dim), table.exponents[:n]].prod(axis=1)
        re = memoryview(terms.real / table.norms[:n])
        im = memoryview(terms.imag / table.norms[:n])
    shells = []
    running = 0j
    cap_used = degree_cap
    for deg in range(degree_cap + 1):
        a, b = table.offsets[deg], table.offsets[deg + 1]
        shell = oracle._fsum(re[a:b], im[a:b])
        shells.append(shell)
        running += shell
        if deg >= 2 and abs(shells[-1]) < shell_tol * abs(running) \
                and abs(shells[-2]) < shell_tol * abs(running):
            cap_used = deg
            break
    mags = [abs(s) for s in shells]
    tail = 0.0
    if len(mags) >= 2 and mags[-1] > 0.0:
        ratio = mags[-1] / mags[-2] if mags[-2] > 0.0 else math.inf
        if ratio < 1.0:
            tail = mags[-1] * ratio / (1.0 - ratio)
        elif mags[-1] > shell_tol * max(abs(running), 1e-300):
            raise ConvergenceError(
                "series shells are not decaying; point too close to the boundary")
        else:
            tail = mags[-1]
    value = oracle._fsum([s.real for s in shells], [s.imag for s in shells])
    return oracle.SeriesValue(value=value, tail_bound=tail, cap_used=cap_used,
                              shells=shells)


def _outcome(fn, *args, **kw):
    # repr of a float round-trips and tells -0.0 from 0.0: equal reprs are bitwise equal
    try:
        sv = fn(*args, **kw)
    except (ConvergenceError, NonFiniteError) as e:
        return repr((type(e), str(e)))
    return repr((sv.value, sv.tail_bound, sv.cap_used, sv.shells))


def test_series_blocks_bitwise_equal_one_pass(monkeypatch):
    specs = dict(closed_form_families())
    specs.update({f"stage{k}": (chain_stage_spec(k), None) for k in (2, 3, 4)})
    caps = set()
    for name, (spec, _) in specs.items():
        table = get_norm_table(spec, 30)
        pairs = (interior_pairs(spec, 8, seed=31)
                 + interior_pairs(spec, 8, seed=32, box_radius=None))
        for (p, q), tol in product(pairs, (1e-9, 0.0)):
            want = _outcome(_series_one_pass, spec, p, q, 30, table, shell_tol=tol)
            with monkeypatch.context() as m:
                m.setattr(oracle, "SHELL_TOL", tol)
                got = _outcome(series_kernel, spec, p, q, 30, table=table)
            assert got == want, name
        # a cap-30 table read at lower caps
        for (p, q), cap in product(pairs, (13, 17)):
            want = _outcome(_series_one_pass, spec, p, q, cap, table)
            got = _outcome(series_kernel, spec, p, q, cap, table=table)
            assert got == want, (name, cap)
    # early exits on both sides of the first two block edges
    edge = oracle.SHELL_BLOCK
    for spec, base in ((disk_spec(), (1,)), (specs["stage3"][0], (1, 0.5j, -0.3))):
        table = get_norm_table(spec, 30)
        for t in np.linspace(0.01, 0.5, 50):
            p = tuple(t * b for b in base)
            got = _outcome(series_kernel, spec, p, p, 30, table=table)
            assert got == _outcome(_series_one_pass, spec, p, p, 30, table)
            caps.add(series_kernel(spec, p, p, 30, table=table).cap_used)
    assert {edge - 1, edge, 2 * edge - 1, 2 * edge} <= caps
    # a huge degree-0 term makes the sum exit at degree 2; the terms of
    # degrees 7 (same block as the exit) and 20 (a later block) overflow to inf
    norms = {0: 1e-12, 7: 5e-324, 20: 5e-324}
    table = NormTable(disk_spec(), [(d,) for d in range(31)],
                      [norms.get(d, 1.0) for d in range(31)], [0.0] * 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sv = series_kernel(disk_spec(), (0.5,), (0.5,), 30, table=table)
    assert sv.cap_used == 2
    assert _outcome(series_kernel, disk_spec(), (0.5,), (0.5,), 30, table=table) == \
        _outcome(_series_one_pass, disk_spec(), (0.5,), (0.5,), 30, table)


def test_series_rejects_short_or_incomplete_table():
    table = get_norm_table(disk_spec(), 6)
    with pytest.raises(SpecError):
        series_kernel(disk_spec(), (0.1,), (0.1,), 7, table=table)
    with pytest.raises(SpecError):
        series_kernel(ball_spec(2), (0.1, 0.0), (0.1, 0.0), 6, table=table)
    full = get_norm_table(polydisk_spec(2), 3)
    keep = [i for i, a in enumerate(full.exponents.tolist()) if a != [1, 1]]
    with pytest.raises(SpecError):
        NormTable(polydisk_spec(2), full.exponents[keep], full.norms[keep], full.errors[keep])
